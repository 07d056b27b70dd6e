package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one `daglayer serve` child process on a loopback port. The
// benchmark owns it from start to stop: stop always ends and reaps the
// process, whatever state the run left it in.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:<port>
	client *http.Client
	done   chan struct{} // closed once the process has been reaped
	stderr *tailBuffer
	once   sync.Once
}

// healthTimeout bounds how long a fresh daemon may take to answer
// /healthz.
const healthTimeout = 20 * time.Second

// startDaemon starts `bin serve -addr <free loopback port> -quiet args...`
// and returns once /healthz answers 200. On any failure the child is
// already stopped and reaped.
func startDaemon(ctx context.Context, bin string, args ...string) (*daemon, error) {
	addr, err := freeLoopbackAddr()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"serve", "-addr", addr, "-quiet"}, args...)...)
	d := &daemon{
		cmd:    cmd,
		base:   "http://" + addr,
		client: newClient(),
		done:   make(chan struct{}),
		stderr: &tailBuffer{max: 4096},
	}
	cmd.Stdout = d.stderr
	cmd.Stderr = d.stderr
	// If the benchmark itself is killed, the kernel takes the daemon
	// with it instead of leaving it running.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start daemon: %w", err)
	}
	go func() {
		_ = cmd.Wait() // the exit status of a daemon we stop is not news
		close(d.done)
	}()
	if err := d.waitHealthy(ctx); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// freeLoopbackAddr asks the kernel for a free loopback port. The daemon
// binds it a moment later; a lost race shows up as a daemon that exits
// before /healthz answers.
func freeLoopbackAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("pick a loopback port: %w", err)
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		return "", fmt.Errorf("pick a loopback port: %w", err)
	}
	return addr, nil
}

func (d *daemon) waitHealthy(ctx context.Context) error {
	deadline := time.Now().Add(healthTimeout)
	for {
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.done:
			return fmt.Errorf("daemon exited before answering /healthz: %s", d.stderr.String())
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon did not answer /healthz within %v", healthTimeout)
		}
	}
}

// pid is the daemon's process ID.
func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop asks the daemon to shut down (SIGTERM), kills it if it has not
// exited within a few seconds, and returns once it has been reaped. Safe
// to call more than once.
func (d *daemon) stop() {
	d.once.Do(func() {
		d.client.CloseIdleConnections()
		select {
		case <-d.done:
			return
		default:
		}
		_ = d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.done:
		case <-time.After(5 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.done
		}
	})
}

// newClient is one closed-loop caller: a single keep-alive connection,
// reused for every request.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        1,
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		},
		Timeout: time.Minute,
	}
}

// reply is one answered request.
type reply struct {
	status int
	header http.Header
	body   []byte
}

// post sends one POST /layer?query with body and reads the whole answer.
func (d *daemon) post(ctx context.Context, query string, body []byte) (reply, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+"/layer?"+query, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, fmt.Errorf("read /layer answer: %w", err)
	}
	return reply{status: resp.StatusCode, header: resp.Header, body: b}, nil
}

// getJSON decodes GET path into v.
func (d *daemon) getJSON(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

// daemonMetrics is the slice of the daemon's /metrics JSON the
// benchmark reads.
type daemonMetrics struct {
	LayerRequests  int64 `json:"layer_requests"`
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	WarmHits       int64 `json:"warm_hits"`
	WarmMisses     int64 `json:"warm_misses"`
	WarmToursSaved int64 `json:"warm_tours_saved"`
	Runtime        struct {
		HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
		GCCycles       uint32 `json:"gc_cycles"`
	} `json:"runtime"`
}

func (d *daemon) metrics(ctx context.Context) (daemonMetrics, error) {
	var m daemonMetrics
	err := d.getJSON(ctx, "/metrics", &m)
	return m, err
}

// cpuMeter reads the daemon's CPU time.
func (d *daemon) cpuMeter() cpuMeter {
	return cpuMeter{read: func() (time.Duration, error) { return procCPU(d.pid()) }}
}

// build returns the daemon's build description from /healthz.
func (d *daemon) build(ctx context.Context) (map[string]any, error) {
	var h struct {
		Build map[string]any `json:"build"`
	}
	err := d.getJSON(ctx, "/healthz", &h)
	return h.Build, err
}

// procCPU returns the CPU time a process's threads have used so far,
// from the scheduler's nanosecond account in /proc/<pid>/task/*/schedstat.
func procCPU(pid int) (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty %s/%s/schedstat", dir, t.Name())
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parse schedstat: %w", err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// selfCPU returns the benchmark process's own user+system CPU time.
func selfCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// peakRSSMB returns a process's VmHWM (peak resident set) in MiB; pid 0
// means the benchmark itself.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err != nil {
					return 0, fmt.Errorf("parse VmHWM: %w", err)
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// resetPeakRSS restarts a process's VmHWM from its current resident
// set (pid 0 means the benchmark itself), so peak_rss_mb covers the
// timed phase and not the garbage of set-up rounds already discarded.
func resetPeakRSS(pid int) error {
	path := "/proc/self/clear_refs"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/clear_refs", pid)
	}
	if err := os.WriteFile(path, []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// tailBuffer keeps the last max bytes written to it, for error messages
// from a child that failed.
type tailBuffer struct {
	mu  sync.Mutex
	max int
	b   []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.b = append(t.b, p...)
	if len(t.b) > t.max {
		t.b = t.b[len(t.b)-t.max:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.TrimSpace(string(t.b))
}
