package main

// Building, booting, scraping and stopping the real generic-serve daemon.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDaemon compiles cmd/generic-serve from the source tree at root.
func buildDaemon(ctx context.Context, root, out string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", out, "./cmd/generic-serve")
	cmd.Dir = root
	if b, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building generic-serve: %v\n%s", err, b)
	}
	return nil
}

// daemon is one running generic-serve process.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	exited chan struct{} // closed once cmd.Wait has returned
	err    error         // cmd.Wait's result, valid after exited closes
	log    *os.File
}

// freeAddr returns a loopback address with a port nothing listens on now.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// bootDaemon starts bin with args plus a fresh -addr and waits for the first
// 200 from /readyz. The returned duration runs from exec to that answer.
func bootDaemon(ctx context.Context, bin string, args []string, logPath string) (*daemon, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon must not outlive the benchmark, even if the benchmark is
	// killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, url: "http://" + addr, exited: make(chan struct{}), log: logf}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, err
	}
	go func() { d.err = cmd.Wait(); close(d.exited) }()

	probe := &http.Client{Timeout: time.Second}
	for {
		resp, err := probe.Get(d.url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		select {
		case <-d.exited:
			logf.Close()
			return nil, 0, fmt.Errorf("generic-serve exited before ready (%v); log in %s", d.err, logPath)
		case <-ctx.Done():
			d.stop()
			return nil, 0, ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// stop sends SIGTERM (the daemon drains and checkpoints), waits up to ten
// seconds, then kills. It returns once the process has exited.
func (d *daemon) stop() error {
	defer d.log.Close()
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if already exited
	select {
	case <-d.exited:
		return d.err
	case <-time.After(10 * time.Second):
	}
	_ = d.cmd.Process.Kill()
	<-d.exited
	return errors.New("generic-serve did not drain within 10s; killed")
}

// rssMB reads the daemon's resident set (VmRSS) in MB.
func (d *daemon) rssMB() (float64, error) {
	f, err := os.Open(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmRSS in /proc status")
}

// rssPeaks samples the daemon's resident set every 50 ms for dur and
// returns the peak of each of the phase's windows that holds a sample.
func (d *daemon) rssPeaks(dur time.Duration) ([]float64, error) {
	peaks := make([]float64, windows)
	width := dur / windows
	start := time.Now()
	for el := time.Duration(0); el < dur; el = time.Since(start) {
		mb, err := d.rssMB()
		if err != nil {
			return nil, err
		}
		k := int(el / width)
		peaks[k] = max(peaks[k], mb)
		time.Sleep(50 * time.Millisecond)
	}
	sampled := peaks[:0]
	for _, p := range peaks {
		if p > 0 {
			sampled = append(sampled, p)
		}
	}
	return sampled, nil
}

// daemonMetrics is one GET /metrics snapshot, keyed by instrument name.
type daemonMetrics map[string]json.RawMessage

func scrape(ctx context.Context, c *http.Client, base string) (daemonMetrics, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m daemonMetrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("decoding /metrics: %w", err)
	}
	return m, nil
}

// counter returns a counter's value (0 when absent).
func (m daemonMetrics) counter(name string) int64 {
	var v int64
	_ = json.Unmarshal(m[name], &v) // absent or not a number: 0
	return v
}

// hist returns a histogram's observation count and total nanoseconds.
func (m daemonMetrics) hist(name string) (count, sumNS int64) {
	var h struct {
		Count int64 `json:"count"`
		Sum   int64 `json:"sum_ns"`
	}
	_ = json.Unmarshal(m[name], &h) // absent: zero
	return h.Count, h.Sum
}
