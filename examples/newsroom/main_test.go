package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/newsroom.golden from current output")

// TestNewsroomGolden pins the example's deterministic report, the end-to-end
// path through the inverted index. Regenerate intentionally with
//
//	go test ./examples/newsroom -update
func TestNewsroomGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("trains LDA and indexes a two-hour stream")
	}
	var buf bytes.Buffer
	if err := run(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "newsroom.golden")
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("output drifted from %s.\n--- got ---\n%s\n--- want ---\n%s", path, buf.Bytes(), want)
	}
}
