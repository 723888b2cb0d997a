package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hdface/internal/obs/trace"
)

// server is one running `hdface serve` process.
type server struct {
	cmd  *exec.Cmd
	base string        // http://host:port
	done chan struct{} // closed once the process has exited
	err  error         // the process's exit status, valid after done
}

// startServer execs the daemon with an ephemeral loopback port and waits
// until it prints the address it bound.
func startServer(bin string, args []string, gomaxprocs int, logPath string) (*server, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"serve", "-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	// The daemon must not outlive the benchmark, however the benchmark ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = logf
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start server: %w", err)
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		defer logf.Close()
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if i := strings.Index(line, " on http://"); i >= 0 {
				select {
				case addr <- line[i+len(" on http://"):]:
				default:
				}
			}
		}
	}()
	go func() {
		<-drained // Wait must not run before the pipe is fully read
		s.err = cmd.Wait()
		close(s.done)
	}()
	select {
	case a := <-addr:
		s.base = "http://" + a
		return s, nil
	case <-s.done:
		return nil, fmt.Errorf("server exited before binding: %v (see %s)", s.err, logPath)
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, fmt.Errorf("server did not bind within 30s (see %s)", logPath)
	}
}

// stop asks the daemon to drain (SIGTERM), kills it if it has not exited
// after 10s, and waits for the process and its output reader to finish.
func (s *server) stop() error {
	select {
	case <-s.done:
		return s.err
	default:
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
		return s.err
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
		return errors.New("server ignored SIGTERM; killed")
	}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// waitHealthy polls /healthz until it answers 200.
func (s *server) waitHealthy(c *http.Client) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := c.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("server /healthz not ready within 30s")
}

// metrics scrapes /metrics into series name (labels included) -> value.
func (s *server) metrics(c *http.Client) (map[string]float64, error) {
	resp, err := c.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// traces fetches the most recent retained traces of one kind.
func (s *server) traces(c *http.Client, kind string) ([]trace.ExportTrace, error) {
	resp, err := c.Get(s.base + "/debug/traces?n=256&kind=" + kind)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var ex trace.Export
	if err := json.NewDecoder(resp.Body).Decode(&ex); err != nil {
		return nil, err
	}
	return ex.Traces, nil
}

// procCPU returns the process's user+system CPU time from /proc.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (USER_HZ = 100).
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// rssMB returns the process's resident set (VmRSS) in MiB.
func rssMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/%d/status", pid)
}
