package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"time"
)

// TraceSummary is one trace as listed by /debug/traces: identity, root name,
// extent and span/error counts, computed over the journaled spans.
type TraceSummary struct {
	Trace      TraceID   `json:"trace"`
	Root       string    `json:"root"`
	Start      time.Time `json:"start"`
	DurationMS float64   `json:"duration_ms"`
	Spans      int       `json:"spans"`
	Errors     int       `json:"errors"`
}

// Summaries groups the journal's traced spans by trace ID, most recent
// first. Untraced spans are skipped. The duration is the extent from the
// earliest start to the latest end across the trace's journaled spans; the
// root name is the journaled span without a journaled parent (the request
// span, for server traces).
func (t *Tracer) Summaries() []TraceSummary {
	if t == nil {
		return nil
	}
	byTrace := map[TraceID][]Span{}
	for _, s := range t.Spans() {
		if s.Trace.IsZero() {
			continue
		}
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	out := make([]TraceSummary, 0, len(byTrace))
	for id, spans := range byTrace {
		ids := make(map[uint64]bool, len(spans))
		for _, s := range spans {
			ids[s.ID] = true
		}
		sum := TraceSummary{Trace: id, Spans: len(spans)}
		first, last := spans[0].Start, spans[0].End
		var rootStart time.Time
		for _, s := range spans {
			if s.Start.Before(first) {
				first = s.Start
			}
			if s.End.After(last) {
				last = s.End
			}
			if s.Err != "" {
				sum.Errors++
			}
			if !ids[s.Parent] && (sum.Root == "" || s.Start.Before(rootStart)) {
				sum.Root, rootStart = s.Name, s.Start
			}
		}
		sum.Start = first
		sum.DurationMS = float64(last.Sub(first)) / float64(time.Millisecond)
		out = append(out, sum)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.After(out[j].Start)
		}
		return out[i].Trace.String() < out[j].Trace.String()
	})
	return out
}

// TraceNode is one span in a parent-linked trace tree.
type TraceNode struct {
	Span
	Children []*TraceNode `json:"children,omitempty"`
}

// BuildTraceTree links spans into parent→child trees. Spans whose parent is
// not in the set (the request root, or orphans whose parent was dropped from
// the ring) become roots. Siblings sort by start time.
func BuildTraceTree(spans []Span) []*TraceNode {
	nodes := make(map[uint64]*TraceNode, len(spans))
	for _, s := range spans {
		nodes[s.ID] = &TraceNode{Span: s}
	}
	var roots []*TraceNode
	for _, s := range spans {
		n := nodes[s.ID]
		if p, ok := nodes[s.Parent]; ok && s.Parent != s.ID {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	sortNodes(roots)
	for _, n := range nodes {
		sortNodes(n.Children)
	}
	return roots
}

func sortNodes(ns []*TraceNode) {
	sort.SliceStable(ns, func(i, j int) bool {
		if !ns[i].Start.Equal(ns[j].Start) {
			return ns[i].Start.Before(ns[j].Start)
		}
		return ns[i].ID < ns[j].ID
	})
}

// WriteTraceTree renders trace trees as indented text, one span per line:
//
//	http.ingest 1.21ms span=12 status=200
//	  ingest.decode 8µs
//	  ingest.batch 1.1ms posts=64
func WriteTraceTree(w io.Writer, roots []*TraceNode) error {
	bw := bufio.NewWriter(w)
	for _, r := range roots {
		writeNode(bw, r, 0)
	}
	return bw.Flush()
}

func writeNode(bw *bufio.Writer, n *TraceNode, depth int) {
	for i := 0; i < depth; i++ {
		bw.WriteString("  ")
	}
	fmt.Fprintf(bw, "%s %s span=%d", n.Name, n.Duration(), n.ID)
	if n.Err != "" {
		fmt.Fprintf(bw, " err=%q", n.Err)
	}
	for _, a := range n.Attrs {
		fmt.Fprintf(bw, " %s=%s", a.Key, a.Val)
	}
	bw.WriteByte('\n')
	for _, c := range n.Children {
		writeNode(bw, c, depth+1)
	}
}
