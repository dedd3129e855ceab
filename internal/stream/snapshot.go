package stream

import (
	"fmt"
	"slices"

	"mqdp/internal/core"
)

// Processor state capture/restore for the durability layer. Processors are
// event-time deterministic, but only from the beginning of their stream —
// a mid-stream restart cannot rebuild their pending windows from a time
// horizon without re-feeding every post since stream start. Instead the
// server snapshots the processor state itself: all three processors keep
// pure-data state (label tables, pending buffers, per-label emission
// values), so a deep copy of exported mirror structs round-trips through
// encoding/gob and resumes the stream exactly where it left off.

// ClockState mirrors the event-time clock.
type ClockState struct {
	Now     float64
	Started bool
}

// LabelSnapState mirrors one Scan label's bookkeeping.
type LabelSnapState struct {
	HasLC   bool
	LCValue float64
	Pending bool
	OU      float64
	LU      core.Post
}

// ScanState is the serializable state of StreamScan / StreamScan+.
type ScanState struct {
	Lambda    float64
	Tau       float64
	Plus      bool
	Labels    []LabelSnapState
	Clock     ClockState
	EmittedAt map[int64]float64
}

// PendingSnapState mirrors one buffered Greedy post.
type PendingSnapState struct {
	Post      core.Post
	Uncovered []core.Label
}

// GreedyState is the serializable state of StreamGreedySC / StreamGreedySC+.
// Pending holds only the live suffix of the buffer (head onward). Selected
// holds at most the latest emitted value per label; older snapshots kept
// several, and restore takes the largest.
type GreedyState struct {
	Lambda   float64
	Tau      float64
	Plus     bool
	Clock    ClockState
	Pending  []PendingSnapState
	Selected [][]float64
}

// InstantState is the serializable state of the Instant processor.
type InstantState struct {
	Lambda float64
	Clock  ClockState
	Set    []bool
	Values []float64
}

// ProcState is the union snapshot of any built-in processor; exactly one
// branch is non-nil.
type ProcState struct {
	Scan    *ScanState
	Greedy  *GreedyState
	Instant *InstantState
}

// CaptureProcessor deep-copies p's state into a serializable snapshot.
// The processor may keep running afterwards; the snapshot is unaffected.
func CaptureProcessor(p Processor) (*ProcState, error) {
	switch s := p.(type) {
	case *Scan:
		st := &ScanState{
			Lambda:    s.lambda,
			Tau:       s.tau,
			Plus:      s.plus,
			Labels:    make([]LabelSnapState, len(s.labels)),
			Clock:     ClockState{Now: s.clk.now, Started: s.clk.started},
			EmittedAt: make(map[int64]float64, len(s.emittedAt)),
		}
		for i, l := range s.labels {
			st.Labels[i] = LabelSnapState{
				HasLC: l.hasLC, LCValue: l.lcValue, Pending: l.pending,
				OU: l.ou, LU: copyPost(l.lu),
			}
		}
		for id, v := range s.emittedAt {
			st.EmittedAt[id] = v
		}
		return &ProcState{Scan: st}, nil
	case *Greedy:
		st := &GreedyState{
			Lambda:   s.lambda,
			Tau:      s.tau,
			Plus:     s.plus,
			Clock:    ClockState{Now: s.clk.now, Started: s.clk.started},
			Pending:  make([]PendingSnapState, 0, len(s.pending)-s.head),
			Selected: make([][]float64, len(s.latest)),
		}
		for _, q := range s.pending[s.head:] {
			st.Pending = append(st.Pending, PendingSnapState{
				Post:      copyPost(q.post),
				Uncovered: append([]core.Label(nil), q.uncovered...),
			})
		}
		for a, v := range s.latest {
			if s.hasLatest[a] {
				st.Selected[a] = []float64{v}
			}
		}
		return &ProcState{Greedy: st}, nil
	case *Instant:
		st := &InstantState{
			Lambda: s.lambda,
			Clock:  ClockState{Now: s.clk.now, Started: s.clk.started},
			Set:    make([]bool, len(s.cache)),
			Values: make([]float64, len(s.cache)),
		}
		for i, c := range s.cache {
			st.Set[i] = c.set
			st.Values[i] = c.value
		}
		return &ProcState{Instant: st}, nil
	}
	return nil, fmt.Errorf("stream: cannot snapshot processor %T", p)
}

// RestoreProcessor rebuilds a processor from a snapshot. The result emits
// exactly the same decisions the captured processor would have for any
// subsequent input.
func RestoreProcessor(st *ProcState) (Processor, error) {
	switch {
	case st == nil:
		return nil, fmt.Errorf("stream: nil processor snapshot")
	case st.Scan != nil:
		c := st.Scan
		s, err := NewScan(len(c.Labels), c.Lambda, c.Tau, c.Plus)
		if err != nil {
			return nil, err
		}
		for i, l := range c.Labels {
			s.labels[i] = labelState{
				hasLC: l.HasLC, lcValue: l.LCValue, pending: l.Pending,
				ou: l.OU, lu: copyPost(l.LU),
			}
		}
		s.clk = clock{now: c.Clock.Now, started: c.Clock.Started}
		for id, v := range c.EmittedAt {
			s.emittedAt[id] = v
		}
		return s, nil
	case st.Greedy != nil:
		c := st.Greedy
		s, err := NewGreedy(len(c.Selected), c.Lambda, c.Tau, c.Plus)
		if err != nil {
			return nil, err
		}
		s.clk = clock{now: c.Clock.Now, started: c.Clock.Started}
		s.pending = make([]pendingPost, len(c.Pending))
		for i, q := range c.Pending {
			s.pending[i] = pendingPost{
				post:      copyPost(q.Post),
				uncovered: append([]core.Label(nil), q.Uncovered...),
			}
		}
		for a, sel := range c.Selected {
			if len(sel) > 0 {
				s.latest[a], s.hasLatest[a] = slices.Max(sel), true
			}
		}
		return s, nil
	case st.Instant != nil:
		c := st.Instant
		s, err := NewInstant(len(c.Set), c.Lambda)
		if err != nil {
			return nil, err
		}
		s.clk = clock{now: c.Clock.Now, started: c.Clock.Started}
		for i := range c.Set {
			s.cache[i].set = c.Set[i]
			s.cache[i].value = c.Values[i]
		}
		return s, nil
	}
	return nil, fmt.Errorf("stream: empty processor snapshot")
}

func copyPost(p core.Post) core.Post {
	p.Labels = append([]core.Label(nil), p.Labels...)
	return p
}

// TopKState is the serializable state of a continuous top-k view.
type TopKState[T any] struct {
	K       int
	Window  float64
	Now     float64
	Items   []TopKItem[T]
	Version uint64
}

// State deep-copies the view for serialization.
func (t *TopK[T]) State() TopKState[T] {
	return TopKState[T]{
		K:       t.k,
		Window:  t.window,
		Now:     t.now,
		Items:   append([]TopKItem[T](nil), t.items...),
		Version: t.version,
	}
}

// RestoreTopK rebuilds a view from a snapshot, recounting dominators and
// dropping the items that can never become visible again (a snapshot
// taken before the view kept only those still restores to the same
// Items and Version).
func RestoreTopK[T any](st TopKState[T]) *TopK[T] {
	v := NewTopK[T](st.K, st.Window)
	v.now = st.Now
	for _, it := range st.Items {
		if len(v.items) == maxTopKCandidates {
			break
		}
		if d := v.dominators(v.items, it.Value); d < v.k {
			v.items = append(v.items, it)
			v.doms = append(v.doms, d)
		}
	}
	v.version = st.Version
	return v
}
