package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// repoRoot finds the module root holding cmd/mqdp-server, from the working
// directory (the harness runs either from the root or from bench/).
func repoRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "mqdp-server", "main.go")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("cmd/mqdp-server not found in %s or its parent: run from the repository root or from bench/", wd)
}

// outDir is bench/out under root: binaries, traces, results, WAL dirs.
func outDir(root string) string { return filepath.Join(root, "bench", "out") }

// buildServer compiles ./cmd/mqdp-server from source and returns the binary
// path and how long the build took.
func buildServer(root string) (string, time.Duration, error) {
	bin := filepath.Join(outDir(root), "bin", "mqdp-server")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/mqdp-server")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/mqdp-server: %v\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// live is every server process started and not yet reaped, so that every
// exit path (return, panic, signal) can kill what is left.
var live struct {
	sync.Mutex
	procs map[*serverProc]struct{}
}

func killAll() {
	live.Lock()
	procs := make([]*serverProc, 0, len(live.procs))
	for p := range live.procs {
		procs = append(procs, p)
	}
	live.Unlock()
	for _, p := range procs {
		p.kill()
	}
}

type serverProc struct {
	cmd   *exec.Cmd
	addr  string // host:port of the public listener
	start time.Time
	exit  chan struct{} // closed once the process is reaped
	err   error         // cmd.Wait result, valid after exit is closed

	mu   sync.Mutex
	tail []string // last stderr lines, for diagnostics
}

var listenRe = regexp.MustCompile(`mqdp-server listening.*?addr"?[=:]"?([0-9.]+:[0-9]+)`)

// errBadFlag reports that the server rejected its command line (exit 2).
var errBadFlag = errors.New("server rejected a flag")

// startServer runs the server binary on 127.0.0.1:0 with its default flags
// plus extra, and returns once it has logged its listen address.
func startServer(bin string, extra ...string) (*serverProc, error) {
	args := append([]string{"-addr", "127.0.0.1:0"}, extra...)
	p := &serverProc{cmd: exec.Command(bin, args...), exit: make(chan struct{})}
	// If the harness dies without running its cleanup, the kernel kills the
	// server.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	p.start = time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	live.Lock()
	if live.procs == nil {
		live.procs = make(map[*serverProc]struct{})
	}
	live.procs[p] = struct{}{}
	live.Unlock()

	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if m := listenRe.FindStringSubmatch(line); m != nil {
				select {
				case addrc <- m[1]:
				default:
				}
			}
			p.mu.Lock()
			if p.tail = append(p.tail, line); len(p.tail) > 40 {
				p.tail = p.tail[1:]
			}
			p.mu.Unlock()
		}
		p.err = p.cmd.Wait()
		live.Lock()
		delete(live.procs, p)
		live.Unlock()
		close(p.exit)
	}()
	select {
	case p.addr = <-addrc:
		return p, nil
	case <-p.exit:
		var ee *exec.ExitError
		if errors.As(p.err, &ee) && ee.ExitCode() == 2 {
			return nil, fmt.Errorf("%w: %s", errBadFlag, p.logTail())
		}
		return nil, fmt.Errorf("server exited before listening: %v\n%s", p.err, p.logTail())
	case <-time.After(120 * time.Second):
		p.kill()
		return nil, fmt.Errorf("server did not listen within 120s\n%s", p.logTail())
	}
}

func (p *serverProc) logTail() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.tail, "\n")
}

func (p *serverProc) pid() int { return p.cmd.Process.Pid }

func (p *serverProc) exited() bool {
	select {
	case <-p.exit:
		return true
	default:
		return false
	}
}

// kill sends SIGKILL and waits for the process to be reaped.
func (p *serverProc) kill() {
	_ = p.cmd.Process.Kill()
	<-p.exit
}

// stop asks for a graceful shutdown (flush, drain, final snapshot) and
// returns how long the process took to exit; it kills after 20 s.
func (p *serverProc) stop() time.Duration {
	start := time.Now()
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exit:
	case <-time.After(20 * time.Second):
		p.kill()
	}
	return time.Since(start)
}

// freePort asks the kernel for an unused port. The debug listener takes its
// address verbatim from a flag and does not log the resolved one.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it is
// 100 on every Linux configuration Go supports.
const clockTick = 100

// procCPU returns utime+stime of a process.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// comm may hold spaces and parentheses; fields resume after the last ')'.
	i := bytes.LastIndexByte(data, ')')
	f := strings.Fields(string(data[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// statusField reads one "Key:   value [kB]" number of a /proc status file.
func statusField(path, key string) (int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseInt(f[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("%s: no %s", path, key)
}

// rssPeakMB is VmHWM, the process's peak resident set.
func rssPeakMB(pid int) (float64, error) {
	kb, err := statusField(fmt.Sprintf("/proc/%d/status", pid), "VmHWM")
	return float64(kb) / 1024, err
}

// voluntaryCtxSwitches sums the count over the process's threads:
// /proc/<pid>/status alone reports only the main thread.
func voluntaryCtxSwitches(pid int) (int64, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/status", pid))
	if err != nil {
		return 0, err
	}
	var total int64
	for _, t := range tasks {
		n, err := statusField(t, "voluntary_ctxt_switches")
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		total += n
	}
	return total, nil
}
