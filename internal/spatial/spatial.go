// Package spatial implements the paper's first future-work direction (§9):
// extending multi-query diversification to the spatiotemporal space, where a
// selected post covers another only if it is close in *both* publication
// time and geographic location. Coverage of (post, label) pairs needs both
// |t_i − t_j| ≤ λt and haversine(P_i, P_j) ≤ λd, with the multi-query rule
// unchanged: every post must be covered on every one of its labels.
//
// The 1-D end-pattern DP does not carry over (there is no total order to
// scan), so the package provides the greedy set-cover solver — whose ln(·)
// guarantee is dimension-independent — a per-label time-scan heuristic with
// geographic validity checks, and an exact branch-and-bound for tiny
// instances.
package spatial

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"mqdp/internal/core"
)

// Post is a geotagged microblogging post.
type Post struct {
	ID   int64
	Time float64 // seconds
	Lat  float64 // degrees, [-90, 90]
	Lon  float64 // degrees, [-180, 180]
	// Labels lists the queries this post matches.
	Labels []core.Label
}

// EarthRadiusKm is the mean Earth radius used by Haversine.
const EarthRadiusKm = 6371.0

// Haversine returns the great-circle distance between two points in km.
func Haversine(lat1, lon1, lat2, lon2 float64) float64 {
	const rad = math.Pi / 180
	dLat := (lat2 - lat1) * rad
	dLon := (lon2 - lon1) * rad
	a := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(lat1*rad)*math.Cos(lat2*rad)*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * EarthRadiusKm * math.Asin(math.Min(1, math.Sqrt(a)))
}

// Instance is a prepared spatiotemporal MQDP input: posts sorted by time
// with per-label occurrence lists.
type Instance struct {
	posts     []Post
	numLabels int
	byLabel   [][]int32
}

// ErrBadPost reports invalid input.
var ErrBadPost = errors.New("spatial: invalid post")

// NewInstance validates, copies and time-sorts posts.
func NewInstance(posts []Post, numLabels int) (*Instance, error) {
	if numLabels < 0 {
		return nil, fmt.Errorf("%w: negative label count", ErrBadPost)
	}
	sorted := make([]Post, len(posts))
	copy(sorted, posts)
	for i := range sorted {
		p := &sorted[i]
		if math.IsNaN(p.Time) || math.IsNaN(p.Lat) || math.IsNaN(p.Lon) {
			return nil, fmt.Errorf("%w: post %d has NaN coordinates", ErrBadPost, p.ID)
		}
		if p.Lat < -90 || p.Lat > 90 || p.Lon < -180 || p.Lon > 180 {
			return nil, fmt.Errorf("%w: post %d at (%v, %v)", ErrBadPost, p.ID, p.Lat, p.Lon)
		}
		labels := append([]core.Label(nil), p.Labels...)
		sort.Slice(labels, func(x, y int) bool { return labels[x] < labels[y] })
		dedup := labels[:0]
		for j, a := range labels {
			if a < 0 || int(a) >= numLabels {
				return nil, fmt.Errorf("%w: post %d label %d out of range", ErrBadPost, p.ID, a)
			}
			if j == 0 || labels[j-1] != a {
				dedup = append(dedup, a)
			}
		}
		p.Labels = dedup
	}
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Time != sorted[j].Time {
			return sorted[i].Time < sorted[j].Time
		}
		return sorted[i].ID < sorted[j].ID
	})
	byLabel := make([][]int32, numLabels)
	for i, p := range sorted {
		for _, a := range p.Labels {
			byLabel[a] = append(byLabel[a], int32(i))
		}
	}
	return &Instance{posts: sorted, numLabels: numLabels, byLabel: byLabel}, nil
}

// Len reports the number of posts.
func (in *Instance) Len() int { return len(in.posts) }

// Post returns the i-th post in time order.
func (in *Instance) Post(i int) Post { return in.posts[i] }

// Thresholds couple the two coverage radii.
type Thresholds struct {
	// TimeSec is λt, the time radius in seconds.
	TimeSec float64
	// DistKm is λd, the geographic radius in km.
	DistKm float64
}

func (th Thresholds) validate() error {
	if th.TimeSec < 0 || th.DistKm < 0 {
		return fmt.Errorf("spatial: negative thresholds %+v", th)
	}
	return nil
}

// Covers reports whether post i covers label a of post j: shared label (not
// rechecked), time within λt and location within λd.
func (in *Instance) Covers(th Thresholds, i, j int) bool {
	pi, pj := &in.posts[i], &in.posts[j]
	return core.Within(pi.Time, pj.Time, th.TimeSec) &&
		Haversine(pi.Lat, pi.Lon, pj.Lat, pj.Lon) <= th.DistKm
}

// timeAt returns the times of LP(a) by position, the sequence
// core.WithinRange searches for a post's time window.
func (in *Instance) timeAt(a core.Label) func(int) float64 {
	lp := in.byLabel[a]
	return func(k int) float64 { return in.posts[lp[k]].Time }
}

// VerifyCover independently re-checks that selected covers the instance.
func (in *Instance) VerifyCover(th Thresholds, selected []int) error {
	if err := th.validate(); err != nil {
		return err
	}
	for _, i := range selected {
		if i < 0 || i >= len(in.posts) {
			return fmt.Errorf("spatial: selected index %d out of range", i)
		}
	}
	for a := 0; a < in.numLabels; a++ {
		lp := in.byLabel[a]
		covered := make([]bool, len(lp))
		for _, i := range selected {
			if !hasLabel(in.posts[i].Labels, core.Label(a)) {
				continue
			}
			from, to := core.WithinRange(len(lp), in.timeAt(core.Label(a)), in.posts[i].Time, th.TimeSec)
			for k := from; k < to; k++ {
				if !covered[k] && in.Covers(th, i, int(lp[k])) {
					covered[k] = true
				}
			}
		}
		for k, ok := range covered {
			if !ok {
				return fmt.Errorf("spatial: post %d uncovered on label %d", in.posts[lp[k]].ID, a)
			}
		}
	}
	return nil
}

// Cover is a solver result.
type Cover struct {
	Selected  []int
	Algorithm string
	Elapsed   time.Duration
	Optimal   bool
}

// Size returns the cover cardinality.
func (c *Cover) Size() int { return len(c.Selected) }

func hasLabel(labels []core.Label, a core.Label) bool {
	for _, l := range labels {
		if l == a {
			return true
		}
		if l > a {
			return false
		}
	}
	return false
}
