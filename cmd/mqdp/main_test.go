package main

import (
	"bytes"
	"strings"
	"testing"

	"mqdp/internal/core"
	"mqdp/internal/wire"
)

const sampleInput = `{"id":1,"value":0,"labels":["a"]}
{"id":2,"value":1,"labels":["a"]}
{"id":3,"value":2,"labels":["a","c"]}
{"id":4,"value":3,"labels":["c"]}
`

func TestRunAllAlgorithms(t *testing.T) {
	for _, algo := range []string{"scan", "scan+", "greedysc", "opt", "exhaustive"} {
		var out, errw bytes.Buffer
		if err := run(strings.NewReader(sampleInput), &out, &errw, 1, algo, false, false, false); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		lines := strings.Count(out.String(), "\n")
		if lines < 2 || lines > 3 {
			t.Errorf("%s selected %d posts, want 2..3\n%s", algo, lines, out.String())
		}
		if !strings.Contains(errw.String(), "selected") {
			t.Errorf("%s: missing summary: %q", algo, errw.String())
		}
	}
}

func TestRunProportional(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run(strings.NewReader(sampleInput), &out, &errw, 1, "scan", true, false, false); err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Error("no output")
	}
}

func TestRunErrors(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run(strings.NewReader(sampleInput), &out, &errw, 1, "bogus", false, false, false); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if err := run(strings.NewReader("{broken"), &out, &errw, 1, "scan", false, false, false); err == nil {
		t.Error("broken input accepted")
	}
	if err := run(strings.NewReader(sampleInput), &out, &errw, -5, "scan", false, false, false); err == nil {
		t.Error("negative lambda accepted")
	}
}

func TestParseAlgo(t *testing.T) {
	for name, want := range map[string]string{
		"scan": "Scan", "SCAN": "Scan", "scanplus": "Scan+", "greedy": "GreedySC",
	} {
		algo, err := parseAlgo(name)
		if err != nil {
			t.Fatalf("parseAlgo(%q): %v", name, err)
		}
		if algo.String() != want {
			t.Errorf("parseAlgo(%q) = %s, want %s", name, algo, want)
		}
	}
	if _, err := parseAlgo("nope"); err == nil {
		t.Error("parseAlgo accepted garbage")
	}
}

// TestRunBinaryRoundTrip drives run with binary input and output: the
// cover must match the JSONL run post-for-post.
func TestRunBinaryRoundTrip(t *testing.T) {
	var dict core.Dictionary
	posts, err := wire.ReadPosts(strings.NewReader(sampleInput), &dict)
	if err != nil {
		t.Fatal(err)
	}
	var bin bytes.Buffer
	bw := wire.NewBinaryWriter(&bin, &dict)
	if err := bw.WriteBatch(posts); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}

	var jsonOut, binOut, errw bytes.Buffer
	if err := run(strings.NewReader(sampleInput), &jsonOut, &errw, 1, "scan", false, false, false); err != nil {
		t.Fatal(err)
	}
	if err := run(bytes.NewReader(bin.Bytes()), &binOut, &errw, 1, "scan", false, false, true); err != nil {
		t.Fatal(err)
	}
	var jdict, bdict core.Dictionary
	want, err := wire.ReadPostsAuto(bytes.NewReader(jsonOut.Bytes()), &jdict)
	if err != nil {
		t.Fatal(err)
	}
	got, err := wire.ReadPostsAuto(bytes.NewReader(binOut.Bytes()), &bdict)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("binary cover has %d posts, JSONL has %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || got[i].Value != want[i].Value {
			t.Errorf("post %d: binary %+v, JSONL %+v", i, got[i], want[i])
		}
	}
}

func TestRunStatsFlag(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run(strings.NewReader(sampleInput), &out, &errw, 1, "greedysc", false, true, false); err != nil {
		t.Fatal(err)
	}
	report := errw.String()
	for _, want := range []string{"compression", "representatives", "max gap"} {
		if !strings.Contains(report, want) {
			t.Errorf("stats output missing %q:\n%s", want, report)
		}
	}
}
