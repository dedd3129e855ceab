// Quickstart: diversify a handful of posts with the public API.
//
//	go run ./examples/quickstart
//
// Reproduces the paper's Figure 2 walk-through: four posts about labels
// a and c, λ = one step on the time axis, minimum cover {P2, P4}.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"mqdp"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run writes the walk-through's offline covers and streaming emissions to w.
func run(w io.Writer) error {
	var dict mqdp.Dictionary
	a := dict.Intern("a")
	c := dict.Intern("c")

	posts := []mqdp.Post{
		{ID: 1, Value: 1, Labels: []mqdp.Label{a}},
		{ID: 2, Value: 2, Labels: []mqdp.Label{a}},
		{ID: 3, Value: 3, Labels: []mqdp.Label{a, c}},
		{ID: 4, Value: 4, Labels: []mqdp.Label{c}},
	}
	inst, err := mqdp.NewInstance(posts, dict.Len())
	if err != nil {
		return err
	}

	for _, algo := range []mqdp.Algorithm{mqdp.Scan, mqdp.GreedySC, mqdp.OPT} {
		cover, err := mqdp.Solve(inst, mqdp.Options{Lambda: 1, Algorithm: algo})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-8s selected %d posts: ids %v\n", algo, cover.Size(), cover.IDs(inst))
	}

	// The same four posts as a stream, decided within τ = 1 time unit.
	proc, err := mqdp.NewStream(mqdp.StreamScanPlus, dict.Len(), 1, 1)
	if err != nil {
		return err
	}
	emissions, err := mqdp.RunStream(posts, proc)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nstreaming with τ=1:\n")
	for _, e := range emissions {
		fmt.Fprintf(w, "  post %d (t=%.0f) emitted at t=%.0f (delay %.0f)\n",
			e.Post.ID, e.Post.Value, e.EmitAt, e.EmitAt-e.Post.Value)
	}
	return nil
}
