package main

import (
	"bufio"
	"encoding/json"
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

// Daemon is a running vdnn-serve child process.
type Daemon struct {
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has been reaped
	Base string        // http://127.0.0.1:port
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

// StartDaemon launches vdnn-serve with extra flags and waits until /readyz
// answers 200. The daemon's own log output is discarded.
func StartDaemon(bin string, extra ...string) (*Daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, extra...)...)
	cmd.SysProcAttr = dieWithParent()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &Daemon{cmd: cmd, done: make(chan struct{}), Base: "http://" + addr}
	go func() { _ = cmd.Wait(); close(d.done) }()
	c := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.done:
			return nil, fmt.Errorf("vdnn-serve exited before ready: %v", cmd.ProcessState)
		default:
		}
		if resp, err := c.Get(d.Base + "/readyz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				c.CloseIdleConnections()
				return d, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.Stop()
	return nil, fmt.Errorf("vdnn-serve not ready within 30s")
}

// dieWithParent makes a child process receive SIGKILL when the benchmark
// exits, however it exits.
func dieWithParent() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// Stop kills the daemon and waits until it has exited.
func (d *Daemon) Stop() {
	_ = d.cmd.Process.Signal(syscall.SIGKILL)
	<-d.done
}

// RSS reads the daemon's resident set size in MB, from /proc.
func (d *Daemon) RSS() (float64, error) { return d.statusMB("VmRSS") }

// HWM reads the daemon's peak resident set size in MB, from /proc.
func (d *Daemon) HWM() (float64, error) { return d.statusMB("VmHWM") }

// statusMB reads a kB field of /proc/<pid>/status in MB.
func (d *Daemon) statusMB(field string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("%s not found in /proc/%d/status", field, d.cmd.Process.Pid)
}

// SampleRSS samples the daemon's RSS every interval until stop is closed,
// then returns the samples.
func (d *Daemon) SampleRSS(interval time.Duration, stop <-chan struct{}) []float64 {
	var out []float64
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		if mb, err := d.RSS(); err == nil {
			out = append(out, mb)
		}
		select {
		case <-stop:
			return out
		case <-tick.C:
		}
	}
}

// CPU is the daemon's user + system time so far, from /proc (clock-tick
// resolution).
func (d *Daemon) CPU() (time.Duration, error) {
	u, s, err := d.cpuSplit()
	return u + s, err
}

// cpuSplit is the daemon's user and system time so far.
func (d *Daemon) cpuSplit() (user, sys time.Duration, err error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	f := strings.Fields(string(b[strings.LastIndexByte(string(b), ')')+1:]))
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("short /proc/%d/stat", d.cmd.Process.Pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("parsing /proc/%d/stat: %v %v", d.cmd.Process.Pid, err1, err2)
	}
	return time.Duration(ut) * time.Second / clockTicks, time.Duration(st) * time.Second / clockTicks, nil
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat times on Linux.
const clockTicks = 100

// Stats is the subset of GET /v1/stats the benchmark reports as deltas.
type Stats struct {
	Simulations int64 `json:"simulations"`
	Priced      int64 `json:"priced"`
	Hits        int64 `json:"hits"`
	Serve       struct {
		Admitted         int64 `json:"admitted"`
		RejectedOverload int64 `json:"rejected_overload"`
	} `json:"serve"`
	Store *struct {
		Writes int64 `json:"writes"`
	} `json:"store"`

	genLateMS float64 // open-loop generator lateness p99, set by servePhase
}

// Stats scrapes GET /v1/stats.
func (d *Daemon) Stats() (Stats, error) {
	var s Stats
	resp, err := http.Get(d.Base + "/v1/stats")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&s)
	return s, err
}
