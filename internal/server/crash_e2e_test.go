package server

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// TestCrashRecoveryE2E is the kill-9 drill: a real mqdp-server process
// with a durability directory is SIGKILLed twice mid-stream — once
// between client batches and once while the ingest loop is running —
// and restarted on the same directory each time. The retrying client
// (unchanged idempotency key per batch) drives the whole stream to
// acceptance across both crashes, and the final per-subscription
// emission sequences must be byte-identical to an uninterrupted
// in-process run: nothing lost, nothing applied twice.
func TestCrashRecoveryE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash drill skipped in -short")
	}

	bin := filepath.Join(t.TempDir(), "mqdp-server")
	build := exec.Command("go", "build", "-o", bin, "mqdp/cmd/mqdp-server")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building mqdp-server: %v\n%s", err, out)
	}

	posts := durPosts(300)
	const batchSize = 10

	// Uninterrupted reference over the same stream, mirroring the
	// binary's defaults (-dedup 10 -dedup-window 8192).
	ref := newServer(t, Config{DupDistance: 10, DupWindow: 8192})
	refIDs := make([]int64, 0, len(durConfigs()))
	for _, cfg := range durConfigs() {
		id, err := ref.Subscribe(cfg)
		if err != nil {
			t.Fatal(err)
		}
		refIDs = append(refIDs, id)
	}
	for _, p := range posts {
		if err := ingestPost(ref, p); err != nil {
			t.Fatal(err)
		}
	}
	ref.Flush()

	addr := freeAddr(t)
	baseURL := "http://" + addr
	dataDir := t.TempDir()
	srv, err := startServerProc(bin, addr, dataDir)
	if err != nil {
		t.Fatal(err)
	}
	reapOnExit(t, srv)
	waitHealthy(t, baseURL)

	cl := NewClient(baseURL)
	cl.HTTPClient = &http.Client{Timeout: 5 * time.Second}
	cl.Retry = &RetryPolicy{MaxAttempts: 200, BackoffBase: 5 * time.Millisecond, BackoffCap: 50 * time.Millisecond}

	ids := make([]int64, 0, len(durConfigs()))
	for _, cfg := range durConfigs() {
		id, err := cl.Subscribe(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if fmt.Sprint(ids) != fmt.Sprint(refIDs) {
		t.Fatalf("subscription ids diverge: %v vs %v", ids, refIDs)
	}

	type procResult struct {
		cmd *exec.Cmd
		err error
	}
	restarted := make(chan procResult, 1)
	for at := 0; at < len(posts); at += batchSize {
		switch at {
		case 100:
			// Crash #1: clean kill between batches. Every acked batch was
			// fsynced (-fsync batch); the restart, racing the client's
			// retries of the next batch, must recover them all.
			kill9(srv)
			go func() {
				cmd, err := startServerProc(bin, addr, dataDir)
				restarted <- procResult{cmd, err}
			}()
		case 200:
			// Crash #2: the kill lands while the ingest loop is running,
			// possibly mid-request — the ambiguous-outcome path. The
			// client retries the unanswered batch with the same
			// idempotency key; whether the dying server made the batch
			// durable or not, it lands exactly once.
			prev := srv
			go func() {
				time.Sleep(20 * time.Millisecond)
				kill9(prev)
				cmd, err := startServerProc(bin, addr, dataDir)
				restarted <- procResult{cmd, err}
			}()
		}
		end := min(at+batchSize, len(posts))
		n, err := cl.Ingest(context.Background(), posts[at:end]...)
		if err != nil {
			t.Fatalf("batch at %d: %v", at, err)
		}
		if n != end-at {
			t.Fatalf("batch at %d: accepted %d of %d", at, n, end-at)
		}
		if at == 100 || at == 200 {
			// The batch above only completes once the new incarnation
			// serves it, so the restart result is already (or imminently)
			// available.
			r := <-restarted
			if r.err != nil {
				t.Fatal(r.err)
			}
			srv = r.cmd
			reapOnExit(t, srv)
		}
	}

	if h, err := cl.Health(context.Background()); err != nil || h.Status != "ok" {
		t.Fatalf("health after two crash recoveries: %+v, %v", h, err)
	}
	st, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	refSt := ref.Stats()
	if st.Ingested != refSt.Ingested || st.DroppedDups != refSt.DroppedDups {
		t.Fatalf("stats diverged after recovery: got %+v, want %+v (a batch lost or applied twice)", st, refSt)
	}
	if err := cl.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		got, err := cl.Emissions(context.Background(), id, 0, 0)
		if err != nil {
			t.Fatalf("sub %d: %v", id, err)
		}
		want, err := ref.Emissions(refIDs[i], 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
			t.Fatalf("sub %d: emissions diverged across kill -9 recovery:\n got %d: %+v\nwant %d: %+v",
				id, len(got), got, len(want), want)
		}
	}
}

// freeAddr grabs a kernel-assigned localhost port and releases it, so
// every server incarnation can listen on the same address.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// startServerProc launches the real binary on addr with a durability
// directory, fsync-per-batch and an aggressive snapshot cadence (so
// kills land before, during and after snapshots).
func startServerProc(bin, addr, dataDir string) (*exec.Cmd, error) {
	cmd := exec.Command(bin,
		"-addr", addr,
		"-data-dir", dataDir,
		"-fsync", "batch",
		"-snapshot-interval", "300ms",
		"-log-level", "warn")
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	return cmd, nil
}

// reapOnExit makes sure a still-running incarnation dies with the test.
func reapOnExit(t *testing.T, cmd *exec.Cmd) {
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
}

// kill9 delivers SIGKILL — no signal handler, no flush, no snapshot —
// and reaps the process.
func kill9(cmd *exec.Cmd) {
	cmd.Process.Kill()
	cmd.Wait()
}

// waitHealthy polls /healthz until the process answers.
func waitHealthy(t *testing.T, baseURL string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(baseURL + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("server at %s never became healthy", baseURL)
}
