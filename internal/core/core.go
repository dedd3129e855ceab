// Package core implements the Multi-Query Diversification Problem (MQDP)
// from "Multi-Query Diversification in Microblogging Posts" (EDBT 2014):
// the post/label data model, λ-coverage semantics (fixed and per-post
// proportional thresholds), and the paper's four offline solvers — the exact
// end-pattern dynamic program OPT, the set-cover greedy GreedySC, and the
// linear-time Scan and Scan+ approximations — plus an exhaustive exact
// baseline used to validate OPT on small instances.
//
// Posts carry a value on an ordered "diversity dimension" (publication time,
// sentiment polarity, ...) and a set of labels (the user queries they match).
// A post Pi λ-covers label a of post Pj when both posts carry a and their
// dimension values are within Pi's coverage radius. A set Z λ-covers the
// whole collection when every post is covered on every one of its labels by
// some member of Z. MQDP asks for the minimum-cardinality such Z.
package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Label identifies a query (a topic, hashtag, or keyword set) in a compact
// integer space. Labels are interned from strings by a Dictionary.
type Label = int32

// Post is one microblogging post projected onto the diversification model:
// a value on the diversity dimension and the set of labels it matches.
type Post struct {
	// ID is an application-assigned identifier, preserved through sorting.
	ID int64
	// Value is the post's coordinate on the diversity dimension, e.g.
	// seconds since stream start, or sentiment polarity in [-1, 1].
	Value float64
	// Labels lists the queries this post is relevant to. Duplicates are
	// removed on instance construction.
	Labels []Label
}

// Dictionary interns string label names to dense Label values, so algorithms
// can use slices indexed by label instead of maps keyed by string.
// The zero value is ready to use.
type Dictionary struct {
	names []string
	ids   map[string]Label
}

// Intern returns the Label for name, assigning the next free id on first use.
func (d *Dictionary) Intern(name string) Label {
	if d.ids == nil {
		d.ids = make(map[string]Label)
	}
	if id, ok := d.ids[name]; ok {
		return id
	}
	id := Label(len(d.names))
	d.names = append(d.names, name)
	d.ids[name] = id
	return id
}

// Lookup returns the Label for name without interning it.
func (d *Dictionary) Lookup(name string) (Label, bool) {
	id, ok := d.ids[name]
	return id, ok
}

// Name returns the string for a previously interned label.
// It panics if the label was never interned.
func (d *Dictionary) Name(id Label) string { return d.names[id] }

// Len reports how many labels have been interned.
func (d *Dictionary) Len() int { return len(d.names) }

// Names returns the interned names in label order. The caller must not
// modify the returned slice.
func (d *Dictionary) Names() []string { return d.names }

// Instance is a prepared MQDP input: posts sorted by dimension value with
// per-label occurrence lists (the paper's LP(a)). Instances are immutable
// after construction and safe for concurrent use.
type Instance struct {
	posts     []Post    // sorted ascending by (Value, ID); labels deduplicated
	numLabels int       // labels are 0..numLabels-1
	byLabel   [][]int32 // byLabel[a] = indexes into posts carrying label a, ascending
	pairs     int       // (post, label) incidences
	maxLabels int       // s: the most labels on one post
}

// ErrBadPost reports invalid input posts (NaN values, negative labels).
var ErrBadPost = errors.New("core: invalid post")

// NewInstance validates, copies and sorts posts into an Instance.
// numLabels must exceed every label id used; pass dict.Len() when labels come
// from a Dictionary. Duplicate labels on a post are dropped. Posts may share
// dimension values.
func NewInstance(posts []Post, numLabels int) (*Instance, error) {
	if numLabels < 0 {
		return nil, fmt.Errorf("%w: negative label count %d", ErrBadPost, numLabels)
	}
	sorted := make([]Post, len(posts))
	copy(sorted, posts)
	for i := range sorted {
		p := &sorted[i]
		if math.IsNaN(p.Value) || math.IsInf(p.Value, 0) {
			return nil, fmt.Errorf("%w: post %d has non-finite value %v", ErrBadPost, p.ID, p.Value)
		}
		labels := append([]Label(nil), p.Labels...)
		sort.Slice(labels, func(x, y int) bool { return labels[x] < labels[y] })
		dedup := labels[:0]
		for j, a := range labels {
			if a < 0 || int(a) >= numLabels {
				return nil, fmt.Errorf("%w: post %d label %d out of range [0,%d)", ErrBadPost, p.ID, a, numLabels)
			}
			if j == 0 || labels[j-1] != a {
				dedup = append(dedup, a)
			}
		}
		p.Labels = dedup
	}
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Value != sorted[j].Value {
			return sorted[i].Value < sorted[j].Value
		}
		return sorted[i].ID < sorted[j].ID
	})
	in := &Instance{posts: sorted, numLabels: numLabels, byLabel: make([][]int32, numLabels)}
	for i, p := range sorted {
		for _, a := range p.Labels {
			in.byLabel[a] = append(in.byLabel[a], int32(i))
		}
		in.pairs += len(p.Labels)
		in.maxLabels = max(in.maxLabels, len(p.Labels))
	}
	return in, nil
}

// MustInstance is NewInstance that panics on error; intended for tests and
// examples with literal inputs.
func MustInstance(posts []Post, numLabels int) *Instance {
	inst, err := NewInstance(posts, numLabels)
	if err != nil {
		panic(err)
	}
	return inst
}

// Len reports the number of posts.
func (in *Instance) Len() int { return len(in.posts) }

// NumLabels reports the size of the label space.
func (in *Instance) NumLabels() int { return in.numLabels }

// Post returns the i-th post in dimension order.
func (in *Instance) Post(i int) Post { return in.posts[i] }

// Posts returns all posts in dimension order. The caller must not modify the
// returned slice.
func (in *Instance) Posts() []Post { return in.posts }

// LabelPosts returns LP(a): the indexes (into dimension order) of posts
// carrying label a, ascending by value. The caller must not modify it.
func (in *Instance) LabelPosts(a Label) []int32 { return in.byLabel[a] }

// MaxLabelsPerPost returns s, the maximum number of labels any post carries.
// It is the approximation factor of Scan. Returns 0 for an empty instance.
func (in *Instance) MaxLabelsPerPost() int { return in.maxLabels }

// OverlapRate returns the average number of labels per post restricted to
// posts with at least one label (the paper's "post overlap rate", §7.2).
// Posts with no labels are ignored; returns 0 when none carry labels.
func (in *Instance) OverlapRate() float64 {
	pairs, n := 0, 0
	for i := range in.posts {
		if len(in.posts[i].Labels) == 0 {
			continue
		}
		pairs += len(in.posts[i].Labels)
		n++
	}
	if n == 0 {
		return 0
	}
	return float64(pairs) / float64(n)
}

// Pairs returns the total number of (post, label) incidences, i.e. the size
// of the set-cover universe used by GreedySC.
func (in *Instance) Pairs() int { return in.pairs }

// valueRange returns the smallest and largest dimension values, or (0, 0)
// for an empty instance.
func (in *Instance) valueRange() (lo, hi float64) {
	if len(in.posts) == 0 {
		return 0, 0
	}
	return in.posts[0].Value, in.posts[len(in.posts)-1].Value
}

// windowInLabel returns the half-open position range [from, to) of LP(a)
// whose values are Within r of v.
func (in *Instance) windowInLabel(a Label, v, r float64) (from, to int) {
	lp := in.byLabel[a]
	return WithinRange(len(lp), func(k int) float64 { return in.posts[lp[k]].Value }, v, r)
}
