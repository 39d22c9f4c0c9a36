package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one nimbusd child process in -data-dir mode. Its stderr
// access log stays on and goes to a file in the run's directory.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	logPath string
	done    chan struct{} // closed when the process has been waited for
}

// daemonFlags are the flags every daemon of a run gets besides -addr and
// -data-dir: no per-client rate limit (one host drives the load) and the
// daemon's default journal sync policy, interval.
func daemonFlags(seed int64) []string {
	return []string{"-rate", "0", "-seed", strconv.FormatInt(daemonSeed(seed), 10)}
}

const syncPolicy = "interval" // nimbusd's default -journal-sync

// startDaemon launches nimbusd on dataDir and waits until /healthz
// answers, returning the time from launch to healthy. A port lost to a
// race between picking and binding is retried.
func startDaemon(bin, dataDir, logPath string, seed int64) (*daemon, time.Duration, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, 0, err
		}
		d, start, err := launch(bin, addr, dataDir, logPath, seed)
		if err != nil {
			return nil, 0, err
		}
		took, err := d.waitHealthy(start, 120*time.Second)
		if err == nil {
			return d, took, nil
		}
		lastErr = err
		d.kill()
		if !strings.Contains(tail(logPath), "address already in use") {
			break
		}
	}
	return nil, 0, lastErr
}

// launch starts the process with its output appended to logPath and
// returns the moment it was started.
func launch(bin, addr, dataDir, logPath string, seed int64) (*daemon, time.Time, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, time.Time{}, err
	}
	args := append([]string{"-addr", addr, "-data-dir", dataDir}, daemonFlags(seed)...)
	d := &daemon{cmd: exec.Command(bin, args...), addr: addr, logPath: logPath, done: make(chan struct{})}
	d.cmd.Stdout = logf
	d.cmd.Stderr = logf
	// The daemon dies with the benchmark even if the benchmark is killed
	// before it can stop the daemon itself.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		//lint:ignore no-dropped-error the log was never written; the start failure is what gets reported
		logf.Close()
		return nil, time.Time{}, fmt.Errorf("starting nimbusd: %w", err)
	}
	go func() {
		//lint:ignore no-dropped-error the exit status of a killed or stopped daemon carries no information; waiting reaps it
		d.cmd.Wait()
		close(d.done)
	}()
	// The child holds its own descriptor for the log; ours is not needed.
	if err := logf.Close(); err != nil {
		d.kill()
		return nil, time.Time{}, err
	}
	return d, start, nil
}

// freeAddr picks a loopback port that is free right now.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// waitHealthy polls /healthz every few milliseconds until it answers 200.
func (d *daemon) waitHealthy(start time.Time, limit time.Duration) (time.Duration, error) {
	hc := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	defer hc.CloseIdleConnections()
	for {
		select {
		case <-d.done:
			return 0, fmt.Errorf("nimbusd exited before becoming healthy: %s", tail(d.logPath))
		default:
		}
		resp, err := hc.Get("http://" + d.addr + "/healthz")
		if err == nil {
			ok := resp.StatusCode == http.StatusOK
			//lint:ignore no-dropped-error the probe's body carries nothing; only the status counts
			resp.Body.Close()
			if ok {
				return time.Since(start), nil
			}
		}
		if time.Since(start) > limit {
			return 0, fmt.Errorf("nimbusd not healthy after %v", limit)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill sends SIGKILL and waits for the process to be gone. Safe on nil and
// on a daemon that has already exited.
func (d *daemon) kill() {
	if d == nil {
		return
	}
	//lint:ignore no-dropped-error Signal fails only when the process has already exited, which is the goal
	d.cmd.Process.Signal(syscall.SIGKILL)
	<-d.done
}

// stop asks for a graceful shutdown (drain and compact) and waits; a
// daemon that does not exit in time is killed.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	//lint:ignore no-dropped-error Signal fails only when the process has already exited, which is the goal
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		d.kill()
	}
}

// vmHWM reads the daemon's peak resident set size, in MB.
func (d *daemon) vmHWM() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// tail returns the last lines of a log file, for error messages.
func tail(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) > 5 {
		lines = lines[len(lines)-5:]
	}
	return strings.Join(lines, " | ")
}

// scrape is one read of the daemon's Prometheus /metrics: series key
// (name plus label block, as printed) to value.
type scrape map[string]float64

func (c *client) scrape() (scrape, error) {
	data, err := c.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	s := scrape{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
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
		s[line[:i]] = v
	}
	return s, sc.Err()
}

// histQuantile is the q-quantile of the histogram observations made
// between two scrapes, interpolated inside the bucket as the daemon's own
// telemetry does. series selects the histogram's label block, e.g.
// `route="POST /api/v1/datasets/{id}/buy"`.
func histQuantile(before, after scrape, name, series string, q float64) (float64, int) {
	type bucket struct{ le, n float64 }
	var bs []bucket
	prefix := name + "_bucket{" + series + ",le=\""
	for k, v := range after {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(k[len(prefix):], "\"}"), 64)
		if err != nil {
			le = math.Inf(1)
		}
		bs = append(bs, bucket{le, v - before[k]})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].n == 0 {
		return 0, 0
	}
	total := bs[len(bs)-1].n // cumulative: the +Inf bucket holds every observation
	rank := q * total
	lo, prev := 0.0, 0.0
	for _, b := range bs {
		if b.n >= rank && b.n > prev {
			if math.IsInf(b.le, 1) {
				return lo, int(total)
			}
			return lo + (b.le-lo)*(rank-prev)/(b.n-prev), int(total)
		}
		lo, prev = b.le, b.n
	}
	return lo, int(total)
}
