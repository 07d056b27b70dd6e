package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// The test binary doubles as a fake daglayer: with PERFBENCH_FAKE_DAEMON
// set it behaves as `daglayer serve` in the named mode, appending its
// PID to PERFBENCH_FAKE_PIDS so tests can check it was reaped.
//
//	healthy      answers /healthz, fails every /layer with 500
//	exit         exits at once with status 1
//	stubborn     never answers and ignores SIGTERM
func TestMain(m *testing.M) {
	if mode := os.Getenv("PERFBENCH_FAKE_DAEMON"); mode != "" {
		os.Exit(fakeDaemon(mode))
	}
	os.Exit(m.Run())
}

func fakeDaemon(mode string) int {
	if f, err := os.OpenFile(os.Getenv("PERFBENCH_FAKE_PIDS"), os.O_APPEND|os.O_WRONLY|os.O_CREATE, 0o644); err == nil {
		fmt.Fprintln(f, os.Getpid())
		f.Close()
	}
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "", "")
	fs.Bool("quiet", false, "")
	fs.String("trace-sample", "", "")
	if len(os.Args) < 2 || os.Args[1] != "serve" || fs.Parse(os.Args[2:]) != nil {
		return 2
	}
	switch mode {
	case "exit":
		return 1
	case "stubborn":
		signal.Ignore(syscall.SIGTERM)
		time.Sleep(time.Hour)
		return 0
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) { fmt.Fprintln(w, `{"status":"ok"}`) })
	mux.HandleFunc("/layer", func(w http.ResponseWriter, r *http.Request) { http.Error(w, "fake", 500) })
	_ = http.ListenAndServe(*addr, mux)
	return 1
}

// fakePIDs points the fake daemon's PID log at a fresh file and returns
// a reader for it.
func fakePIDs(t *testing.T, mode string) func() []int {
	path := t.TempDir() + "/pids"
	t.Setenv("PERFBENCH_FAKE_DAEMON", mode)
	t.Setenv("PERFBENCH_FAKE_PIDS", path)
	return func() []int {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("no fake daemon started: %v", err)
		}
		var pids []int
		for _, f := range strings.Fields(string(b)) {
			pid, err := strconv.Atoi(f)
			if err != nil {
				t.Fatal(err)
			}
			pids = append(pids, pid)
		}
		return pids
	}
}

// assertReaped fails unless every PID is gone: a process that exited
// but was never waited for is a zombie, and signal 0 still reaches it.
func assertReaped(t *testing.T, pids []int) {
	t.Helper()
	if len(pids) == 0 {
		t.Fatal("no daemon PIDs recorded")
	}
	for _, pid := range pids {
		if err := syscall.Kill(pid, 0); !errors.Is(err, syscall.ESRCH) {
			t.Errorf("daemon %d still exists after the run (kill -0: %v)", pid, err)
		}
	}
}

// TestDaemonReapedWhenRunFails: every /layer fails, so serve-hot's
// set-up pass fails and the run returns an error; its daemon must be
// stopped and reaped all the same.
func TestDaemonReapedWhenRunFails(t *testing.T) {
	pids := fakePIDs(t, "healthy")
	bin, _ := os.Executable()
	for name, run := range map[string]func(context.Context, config) (*result, error){
		"serve-hot": runServeHot, "edit-stream": runEditStream,
	} {
		cfg := config{seed: 1, seconds: 1, daemon: bin, setupRounds: 1}
		if _, err := run(context.Background(), cfg); err == nil {
			t.Fatalf("%s against a daemon that fails every request: no error", name)
		}
	}
	assertReaped(t, pids())
}

// TestDaemonReapedWhenStartFails covers a daemon that dies before
// /healthz and one that never answers and ignores SIGTERM.
func TestDaemonReapedWhenStartFails(t *testing.T) {
	bin, _ := os.Executable()
	t.Run("exit", func(t *testing.T) {
		pids := fakePIDs(t, "exit")
		if _, err := startDaemon(context.Background(), bin); err == nil {
			t.Fatal("no error from a daemon that exits at once")
		}
		assertReaped(t, pids())
	})
	t.Run("stubborn", func(t *testing.T) {
		pids := fakePIDs(t, "stubborn")
		ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
		defer cancel()
		if _, err := startDaemon(ctx, bin); err == nil {
			t.Fatal("no error from a daemon that never answers")
		}
		assertReaped(t, pids())
	})
}
