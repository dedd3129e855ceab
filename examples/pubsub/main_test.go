package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/pubsub.golden from current output")

// TestPubsubGolden pins the example's report, the served path end to end:
// HTTP subscribe, binary ingest, routing, dedup, the streaming processors,
// flush and polls. Regenerate intentionally with
//
//	go test ./examples/pubsub -update
func TestPubsubGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "pubsub.golden")
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
