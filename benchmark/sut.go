package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The benchmark runs from its own directory (go run -C benchmark .), so
// the repository root is one level up and everything it writes stays
// under out/.
const (
	repoRoot = ".."
	outDir   = "out"
)

// buildSUT compiles the real daemon and gateway from the checkout's
// source into out/bin. The go build cache makes a rebuild of unchanged
// source a sub-second check.
func buildSUT() error {
	binDir, err := filepath.Abs(filepath.Join(outDir, "bin"))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return err
	}
	for _, name := range []string{"hotpathsd", "hotpathsgw"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(binDir, name), "./cmd/"+name)
		cmd.Dir = repoRoot
		if out, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("build %s: %w\n%s", name, err, out)
		}
	}
	return nil
}

// proc is one SUT process in its own process group, stderr in a log file.
type proc struct {
	cmd     *exec.Cmd
	url     string
	log     *os.File
	logFrom int64         // size of the log when this process started
	exited  chan struct{} // closed once the process has ended and been reaped
}

// live is the set of running SUT processes, so an interrupt can stop
// them before the benchmark exits.
var live struct {
	sync.Mutex
	procs map[*proc]struct{}
}

// stopLive kills every SUT process still running.
func stopLive() {
	live.Lock()
	ps := make([]*proc, 0, len(live.procs))
	for p := range live.procs {
		ps = append(ps, p)
	}
	live.Unlock()
	for _, p := range ps {
		p.kill()
	}
}

// freePort asks the kernel for an unused loopback port by binding :0.
// The listener is closed before the daemon binds the port again; nothing
// else on a benchmark box competes for it in between.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startProc execs out/bin/<bin> -addr 127.0.0.1:<free port> <args...>.
// logName names the stderr log under out/; it is appended to, so the
// boots of one run's repeated set-ups share a file. env is added to this
// process's environment.
func startProc(bin, logName string, env []string, args ...string) (*proc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	log, err := os.OpenFile(filepath.Join(outDir, logName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	var logFrom int64
	if info, err := log.Stat(); err == nil {
		logFrom = info.Size()
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(filepath.Join(outDir, "bin", bin), append([]string{"-addr", addr}, args...)...)
	cmd.Stderr = log
	cmd.Env = append(os.Environ(), env...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	p := &proc{cmd: cmd, url: "http://" + addr, log: log, logFrom: logFrom, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // "signal: killed", or whatever the process died of: its log says
		close(p.exited)
	}()
	live.Lock()
	if live.procs == nil {
		live.procs = map[*proc]struct{}{}
	}
	live.procs[p] = struct{}{}
	live.Unlock()
	return p, nil
}

// kill SIGKILLs the process group and waits for the process to end.
func (p *proc) kill() {
	live.Lock()
	_, running := live.procs[p]
	delete(live.procs, p)
	live.Unlock()
	if !running {
		return
	}
	// The group may already be gone; that the process has ended is what
	// matters.
	_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
	<-p.exited
	p.log.Close()
}

// logTail is the end of what this process wrote to its log.
func (p *proc) logTail() string {
	b, err := os.ReadFile(p.log.Name())
	if err != nil || int64(len(b)) < p.logFrom {
		return ""
	}
	b = b[p.logFrom:]
	return string(b[max(0, len(b)-2000):])
}

// waitHealthy polls the process's GET /healthz every 2 ms until it
// answers 200. It gives up when the process ends or the time is over, and
// says what the process logged.
func (p *proc) waitHealthy(c *http.Client, within time.Duration) error {
	deadline := time.Now().Add(within)
	for {
		resp, err := c.Get(p.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		select {
		case <-p.exited:
			return fmt.Errorf("%s ended before it was healthy (%v); its log:\n%s", p.url, err, p.logTail())
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy after %v: %w; its log:\n%s", p.url, within, err, p.logTail())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// startHealthy starts the process and waits until it is healthy. Between
// freePort's look and the process's bind another program can take the
// port, so a process that does not come up is killed and started again,
// on another port, twice.
func startHealthy(c *http.Client, within time.Duration, bin, logName string, env []string, args ...string) (p *proc, err error) {
	for range 3 {
		if p, err = startProc(bin, logName, env, args...); err != nil {
			return nil, err
		}
		if err = p.waitHealthy(c, within); err == nil {
			return p, nil
		}
		p.kill()
	}
	return nil, err
}

// clockTick is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat. It is 100 on every Linux architecture Go supports.
const clockTick = 10 * time.Millisecond

// parseProcStat returns utime+stime from the text of /proc/<pid>/stat.
// The command name (field 2) may contain spaces and parentheses, so
// fields are counted from the last ')'.
func parseProcStat(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("proc stat: no command field")
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command", len(f))
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("proc stat: %w", err)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// parseProcStatusKB returns the value of a "Key:  123 kB" line of
// /proc/<pid>/status, such as VmHWM (peak resident set).
func parseProcStatusKB(status, key string) (int64, error) {
	sc := bufio.NewScanner(strings.NewReader(status))
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), key+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed %s line %q", key, sc.Text())
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc status: no %s line", key)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStat(string(bytes.TrimSpace(b)))
}

// rssPeakMB is the process's peak resident set (VmHWM) in MB.
func rssPeakMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kb, err := parseProcStatusKB(string(b), "VmHWM")
	return float64(kb) / 1024, err
}

// parseSteal returns the steal column of the "cpu" line of /proc/stat:
// time the hypervisor ran something else while this machine had work.
func parseSteal(stat string) (time.Duration, error) {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0, fmt.Errorf("proc stat: malformed cpu line %q", line)
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: %w", err)
	}
	return time.Duration(ticks) * clockTick, nil
}

// hostSteal is the machine's stolen CPU time so far, summed over CPUs.
func hostSteal() (time.Duration, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	return parseSteal(string(b))
}
