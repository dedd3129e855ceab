// Sentiment: diversification over the sentiment dimension with proportional
// λ (§2 and §6 of the paper).
//
//	go run ./examples/sentiment
//
// News about an unemployment-rate drop draws mostly positive posts and a
// few negative ones. Diversifying over sentiment polarity with Equation 2's
// density-adaptive thresholds keeps the selection proportional — more
// positive representatives where the reaction is mostly positive — while a
// fixed λ flattens the distribution.
package main

import (
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"

	"mqdp"
	"mqdp/internal/sentiment"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run writes the fixed-λ and proportional-λ selection counts to w.
func run(w io.Writer) error {
	rng := rand.New(rand.NewSource(11))

	positive := []string{
		"great news on jobs, strong growth this quarter",
		"unemployment drops again, what a win for workers",
		"hiring is up and markets rally on the report",
		"really happy to see the recovery gaining strength",
		"excellent jobs report, economy improving fast",
	}
	negative := []string{
		"the jobs report hides weak wages and losses",
		"still worried about layoffs in manufacturing",
		"this recovery is terrible for part time workers",
	}

	// 40 positive takes, 8 negative takes, with wording jitter.
	var dict mqdp.Dictionary
	jobs := dict.Intern("jobs-report")
	var posts []mqdp.Post
	id := int64(0)
	emit := func(templates []string, n int) {
		for i := 0; i < n; i++ {
			text := templates[rng.Intn(len(templates))]
			score := sentiment.Score(text) + rng.NormFloat64()*0.05
			if score > 1 {
				score = 1
			} else if score < -1 {
				score = -1
			}
			posts = append(posts, mqdp.Post{ID: id, Value: score, Labels: []mqdp.Label{jobs}})
			id++
		}
	}
	emit(positive, 40)
	emit(negative, 8)

	inst, err := mqdp.NewInstance(posts, dict.Len())
	if err != nil {
		return err
	}

	lambda0 := 0.25
	for _, proportional := range []bool{false, true} {
		cover, err := mqdp.Solve(inst, mqdp.Options{
			Lambda:       lambda0,
			Algorithm:    mqdp.Scan,
			Proportional: proportional,
		})
		if err != nil {
			return err
		}
		pos, neg := 0, 0
		for _, i := range cover.Selected {
			if inst.Post(i).Value >= 0 {
				pos++
			} else {
				neg++
			}
		}
		mode := "fixed λ       "
		if proportional {
			mode = "proportional λ"
		}
		fmt.Fprintf(w, "%s: %2d selected (%d positive, %d negative)\n", mode, cover.Size(), pos, neg)
	}
	fmt.Fprintf(w, "\ninput distribution: %d positive, %d negative posts\n", 40, 8)
	fmt.Fprintln(w, "proportional λ shrinks coverage radii in the dense positive region,")
	fmt.Fprintln(w, "so the digest mirrors the crowd's reaction instead of flattening it.")
	return nil
}
