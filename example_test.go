package mqdp_test

import (
	"fmt"

	"mqdp"
)

// The Figure 2 instance of the paper: four posts over labels a and c with
// λ = 1; the optimum keeps P3 (covering label a around it and label c) plus
// one endpoint.
func ExampleSolve() {
	var dict mqdp.Dictionary
	a, c := dict.Intern("a"), dict.Intern("c")
	posts := []mqdp.Post{
		{ID: 1, Value: 1, Labels: []mqdp.Label{a}},
		{ID: 2, Value: 2, Labels: []mqdp.Label{a}},
		{ID: 3, Value: 3, Labels: []mqdp.Label{a, c}},
		{ID: 4, Value: 4, Labels: []mqdp.Label{c}},
	}
	inst, _ := mqdp.NewInstance(posts, dict.Len())
	cover, _ := mqdp.Solve(inst, mqdp.Options{Lambda: 1, Algorithm: mqdp.OPT})
	fmt.Println(cover.Size(), "posts represent the stream")
	// Output: 2 posts represent the stream
}

func ExampleNewStream() {
	var dict mqdp.Dictionary
	topic := dict.Intern("breaking")
	proc, _ := mqdp.NewStream(mqdp.StreamScanPlus, dict.Len(), 60, 10)
	posts := []mqdp.Post{
		{ID: 1, Value: 0, Labels: []mqdp.Label{topic}},
		{ID: 2, Value: 30, Labels: []mqdp.Label{topic}},  // within λ of post 1
		{ID: 3, Value: 300, Labels: []mqdp.Label{topic}}, // new development
	}
	emissions, _ := mqdp.RunStream(posts, proc)
	for _, e := range emissions {
		fmt.Printf("post %d shown at t=%.0f\n", e.Post.ID, e.EmitAt)
	}
	// Post 1 is shown once its τ=10 delay budget expires; post 2 is then
	// redundant (within λ of it), and post 3 is news again.
	// Output:
	// post 1 shown at t=10
	// post 3 shown at t=310
}
