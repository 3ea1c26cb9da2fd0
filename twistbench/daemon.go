package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one twistd process the benchmark started.
type daemon struct {
	id     string
	url    string
	cmd    *exec.Cmd
	stderr bytes.Buffer
	exited chan struct{} // closed once the process has been reaped
	err    error         // Wait's result, valid after exited
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemons launches n twistd processes with default flags; with n > 1
// they form a fleet over -peers, as the CI cluster smoke test wires it.
func startDaemons(bin string, n int) ([]*daemon, error) {
	ds := make([]*daemon, n)
	var peers []string
	for k := range ds {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		d := &daemon{id: fmt.Sprintf("n%d", k), url: fmt.Sprintf("http://127.0.0.1:%d", port), exited: make(chan struct{})}
		ds[k] = d
		peers = append(peers, d.id+"="+d.url)
	}
	for k, d := range ds {
		args := []string{"-addr", strings.TrimPrefix(d.url, "http://")}
		if n > 1 {
			args = append(args, "-node", d.id, "-advertise", d.url, "-peers", strings.Join(peers, ","))
		}
		d.cmd = exec.Command(bin, args...)
		d.cmd.Stderr = &d.stderr
		// A daemon must not outlive the benchmark, even one killed mid-run.
		d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := d.cmd.Start(); err != nil {
			stopDaemons(ds[:k])
			return nil, fmt.Errorf("start twistd: %w", err)
		}
		go func(d *daemon) {
			d.err = d.cmd.Wait()
			close(d.exited)
		}(d)
	}
	return ds, nil
}

// waitReady polls until every daemon answers /readyz with 200 and, for a
// fleet, until every node's /metrics/fleet reaches all its peers.
func waitReady(c *http.Client, ds []*daemon, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, d := range ds {
		for {
			if status(c, d.url+"/readyz") == http.StatusOK {
				break
			}
			select {
			case <-d.exited:
				return fmt.Errorf("twistd %s exited during start: %v: %s", d.id, d.err, d.stderr.String())
			default:
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("twistd %s not ready after %v", d.id, timeout)
			}
			time.Sleep(time.Millisecond)
		}
	}
	if len(ds) == 1 {
		return nil
	}
	want := strconv.Itoa(len(ds))
	for _, d := range ds {
		for {
			var rep struct {
				Params map[string]string `json:"params"`
			}
			if getJSON(c, d.url+"/metrics/fleet", &rep) == nil && rep.Params["nodes_up"] == want && rep.Params["down"] == "" {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("fleet did not converge at %s after %v", d.id, timeout)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

func status(c *http.Client, url string) int {
	resp, err := c.Get(url)
	if err != nil {
		return 0
	}
	resp.Body.Close()
	return resp.StatusCode
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// stopDaemons sends SIGTERM to every daemon and waits for each to exit. A
// daemon that does not drain cleanly (non-zero exit) is an error; one that
// hangs past the drain budget is killed.
func stopDaemons(ds []*daemon) error {
	var errs []error
	for _, d := range ds {
		if d == nil || d.cmd == nil || d.cmd.Process == nil {
			continue
		}
		d.cmd.Process.Signal(syscall.SIGTERM)
	}
	for _, d := range ds {
		if d == nil || d.cmd == nil || d.cmd.Process == nil {
			continue
		}
		select {
		case <-d.exited:
		case <-time.After(40 * time.Second):
			d.cmd.Process.Kill()
			<-d.exited
			errs = append(errs, fmt.Errorf("twistd %s did not drain in time", d.id))
			continue
		}
		if d.err != nil {
			errs = append(errs, fmt.Errorf("twistd %s drain exit: %v: %s", d.id, d.err, lastLines(d.stderr.String(), 5)))
		}
	}
	return errors.Join(errs...)
}

func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, " | ")
}

// procCPU reads a process's CPU time (utime+stime) from /proc.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
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
	const clkTck = 100 // USER_HZ on Linux
	return time.Duration(ut+st) * time.Second / clkTck, nil
}

// procHWM reads a process's peak resident set size (VmHWM) in bytes.
func procHWM(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			if err != nil {
				return 0, err
			}
			return kb * 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// metricsCounters fetches a daemon's /metrics integer counters.
func metricsCounters(c *http.Client, url string) (map[string]int64, error) {
	var rep struct {
		Rows []struct {
			Det map[string]string `json:"det"`
		} `json:"rows"`
	}
	if err := getJSON(c, url+"/metrics", &rep); err != nil {
		return nil, err
	}
	det := map[string]int64{}
	for _, r := range rep.Rows {
		for k, v := range r.Det {
			if n, err := strconv.ParseInt(v, 10, 64); err == nil {
				det[k] += n
			}
		}
	}
	return det, nil
}
