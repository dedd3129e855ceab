package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

// buildServer compiles this command into a temporary directory.
func buildServer(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the mqdp-server binary; skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "mqdp-server")
	if out, err := exec.Command("go", "build", "-o", bin, "mqdp/cmd/mqdp-server").CombinedOutput(); err != nil {
		t.Fatalf("building mqdp-server: %v\n%s", err, out)
	}
	return bin
}

// TestBadSLOTargetExits: an -slo-target outside (0, 1) is a usage error,
// not a value silently replaced by 0.99.
func TestBadSLOTargetExits(t *testing.T) {
	bin := buildServer(t)
	for _, target := range []string{"1.5", "0", "-0.2"} {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		out, err := exec.CommandContext(ctx, bin, "-addr", "127.0.0.1:0", "-slo-ingest", "50ms", "-slo-target", target).CombinedOutput()
		cancel()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("-slo-target %s: exit %v, want status 2\n%s", target, err, out)
			continue
		}
		if !strings.Contains(string(out), "bad -slo-target") {
			t.Errorf("-slo-target %s: output lacks %q:\n%s", target, "bad -slo-target", out)
		}
	}
}

// TestSLOWithoutObs: -no-obs turns off the metrics registry, not the
// SLOs; JSON /metrics still reports them with the requested target.
func TestSLOWithoutObs(t *testing.T) {
	bin := buildServer(t)
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-log-format", "json",
		"-no-obs", "-slo-ingest", "50ms", "-slo-target", "0.95")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Signal(os.Interrupt)
		cmd.Wait()
	})

	// The listening log line carries the kernel-assigned address.
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			var rec struct{ Msg, Addr string }
			if json.Unmarshal(sc.Bytes(), &rec) == nil && rec.Msg == "mqdp-server listening" {
				addrc <- rec.Addr
				break
			}
		}
		for sc.Scan() { // keep draining so the server never blocks on a log write
		}
	}()
	var addr string
	select {
	case addr = <-addrc:
	case <-time.After(10 * time.Second):
		t.Fatal("mqdp-server never logged its listening address")
	}

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m struct {
		SLOs []struct {
			Name   string  `json:"name"`
			Target float64 `json:"target"`
		} `json:"slos"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if len(m.SLOs) != 1 || m.SLOs[0].Name != "ingest" || m.SLOs[0].Target != 0.95 {
		t.Fatalf("/metrics slos = %+v, want one ingest SLO at target 0.95", m.SLOs)
	}
}

// TestREADMEFlagTable pins the README's mqdp-server flag table to the
// binary: the first column lists exactly the flags `mqdp-server -h`
// prints, so a flag added or removed without its row fails here.
func TestREADMEFlagTable(t *testing.T) {
	bin := buildServer(t)
	help, err := exec.Command(bin, "-h").CombinedOutput()
	var ee *exec.ExitError
	if err != nil && !errors.As(err, &ee) {
		t.Fatalf("mqdp-server -h: %v", err)
	}
	var binary []string
	for _, m := range regexp.MustCompile(`(?m)^  -([a-z-]+)`).FindAllSubmatch(help, -1) {
		binary = append(binary, string(m[1]))
	}

	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(readme), "| `mqdp-server` flag |")
	if !ok {
		t.Fatal("README.md has no mqdp-server flag table")
	}
	table, _, _ = strings.Cut(table, "\n\n")
	var documented []string
	for _, row := range strings.Split(table, "\n")[1:] {
		cells := strings.Split(row, "|")
		if len(cells) < 2 {
			continue
		}
		for _, m := range regexp.MustCompile("`-([a-z-]+)`").FindAllStringSubmatch(cells[1], -1) {
			documented = append(documented, m[1])
		}
	}
	slices.Sort(binary)
	slices.Sort(documented)
	if len(binary) == 0 || !slices.Equal(binary, documented) {
		t.Errorf("README flag table lists %v\nmqdp-server -h lists     %v", documented, binary)
	}
}
