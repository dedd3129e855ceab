package obs

import (
	"fmt"
	"testing"
)

func TestTracerParentLinkingAndAttrs(t *testing.T) {
	tr := NewTracer(16)
	root := tr.Start("solve")
	root.SetInt("posts", 1234)
	child := root.Child("sweep")
	child.Set("phase", "candidate")
	child.End()
	root.End()

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("journal has %d spans, want 2", len(spans))
	}
	// End order: child first.
	if spans[0].Name != "sweep" || spans[1].Name != "solve" {
		t.Fatalf("span order = %s, %s", spans[0].Name, spans[1].Name)
	}
	if spans[0].Parent != spans[1].ID {
		t.Fatalf("child parent = %d, want %d", spans[0].Parent, spans[1].ID)
	}
	if spans[1].Parent != 0 {
		t.Fatalf("root parent = %d, want 0", spans[1].Parent)
	}
	if len(spans[1].Attrs) != 1 || spans[1].Attrs[0] != (Attr{Key: "posts", Val: "1234"}) {
		t.Fatalf("root attrs = %v", spans[1].Attrs)
	}
	if spans[0].Duration() < 0 {
		t.Fatal("negative span duration")
	}
}

// TestTracerRingBounded: the journal keeps exactly the most recent capacity
// spans and counts the overwritten ones as dropped.
func TestTracerRingBounded(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		s := tr.Start(fmt.Sprintf("s%d", i))
		s.End()
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("retained %d spans, want 4", len(spans))
	}
	for i, s := range spans {
		if want := fmt.Sprintf("s%d", i+6); s.Name != want {
			t.Errorf("span %d = %s, want %s (oldest-first)", i, s.Name, want)
		}
	}
	if got := tr.Stats().Dropped; got != 6 {
		t.Errorf("dropped = %d, want 6", got)
	}
}
