//go:build replication_e2e

// The multi-process replication golden test: real hotpathsd processes, a
// primary and a follower, over real TCP. It is behind the replication_e2e
// build tag because it builds binaries and spawns processes — CI runs it
// as its own step (see .github/workflows/ci.yml); locally:
//
//	go test -race -tags replication_e2e -run TestReplicationE2E ./cmd/hotpathsd
package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"hotpaths"
	"hotpaths/internal/httpapi"
)

// buildDaemon compiles hotpathsd (with -race, so the spawned daemons are
// themselves race-checked) into a temp dir and returns the binary path.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "hotpathsd")
	cmd := exec.Command("go", "build", "-race", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("build hotpathsd: %v\n%s", err, out)
	}
	return bin
}

// freeAddr reserves an ephemeral localhost port and returns host:port.
// The tiny window between Close and the daemon's bind is acceptable for a
// test that owns the machine.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

type daemon struct {
	t       *testing.T
	cmd     *exec.Cmd
	base    string
	logs    *bytes.Buffer
	stopped bool
}

func startDaemon(t *testing.T, bin string, args ...string) *daemon {
	t.Helper()
	addr := freeAddr(t)
	logs := &bytes.Buffer{}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stderr = logs
	cmd.Stdout = logs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{t: t, cmd: cmd, base: "http://" + addr, logs: logs}
	t.Cleanup(func() { d.stop() })
	d.waitReady()
	return d
}

func (d *daemon) stop() {
	if d.cmd.Process == nil || d.stopped {
		return
	}
	d.stopped = true
	d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { d.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-done
	}
}

func (d *daemon) waitReady() {
	d.t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			return
		}
		if time.Now().After(deadline) {
			d.t.Fatalf("daemon at %s never became ready; logs:\n%s", d.base, d.logs)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (d *daemon) get(path string) (int, []byte) {
	d.t.Helper()
	resp, err := http.Get(d.base + path)
	if err != nil {
		d.t.Fatalf("GET %s: %v; logs:\n%s", path, err, d.logs)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		d.t.Fatalf("GET %s: read body: %v", path, err)
	}
	return resp.StatusCode, b
}

func (d *daemon) post(path string, body any) (int, []byte) {
	d.t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			d.t.Fatal(err)
		}
	}
	resp, err := http.Post(d.base+path, "application/json", &buf)
	if err != nil {
		d.t.Fatalf("POST %s: %v; logs:\n%s", path, err, d.logs)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b
}

func (d *daemon) stats() map[string]any {
	d.t.Helper()
	code, b := d.get("/stats")
	if code != http.StatusOK {
		d.t.Fatalf("/stats: %d %s", code, b)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		d.t.Fatalf("/stats decode: %v", err)
	}
	return m
}

// e2eObservations mirrors the commuter-flow idea of the in-process golden
// tests: three lanes of objects marching along a corridor so paths form,
// heat up and expire within the run.
func e2eObservations(tick int64) []hotpaths.ObservationJSON {
	var obs []hotpaths.ObservationJSON
	for lane := int64(0); lane < 4; lane++ {
		for o := int64(0); o < 3; o++ {
			id := lane*3 + o
			depart := id * 4
			s := tick - depart
			if s < 0 || s > 60 {
				continue
			}
			obs = append(obs, hotpaths.ObservationJSON{
				Object: int(id),
				X:      float64(s) * 11,
				Y:      float64(lane*40) + float64(o),
				T:      tick,
			})
		}
	}
	return obs
}

// TestReplicationE2E is the acceptance golden test: a follower hotpathsd
// process attaches to a primary hotpathsd process mid-stream and reaches
// byte-identical /topk, /paths and /paths.geojson answers at every shared
// epoch boundary — including across a primary checkpoint + WAL truncation
// and a forced follower reconnect.
func TestReplicationE2E(t *testing.T) {
	bin := buildDaemon(t)
	walDir := filepath.Join(t.TempDir(), "wal")

	primary := startDaemon(t, bin,
		"-wal", walDir,
		"-fsync", "1ms",
		"-wal-segment", "8192", // rotate often so checkpoints truncate for real
		"-eps", "5", "-w", "40", "-epoch", "5", "-k", "10",
		"-bounds", "-100,-100,2000,2000",
	)

	const horizon = 120
	feed := func(tick int64) {
		t.Helper()
		code, b := primary.post("/observe", httpapi.ObserveRequest{Observations: e2eObservations(tick), Tick: tick})
		if code != http.StatusOK {
			t.Fatalf("observe t=%d: %d %s", tick, code, b)
		}
	}

	// First stretch before the follower exists: it must catch up on attach.
	var tick int64
	for tick = 1; tick <= 40; tick++ {
		feed(tick)
	}

	follower := startDaemon(t, bin, "-follow", primary.base, "-max-lag", "0")

	// awaitEpoch blocks until the follower's applied clock and epoch match
	// the primary's /stats view.
	awaitEpoch := func(wantEpoch, wantClock float64) {
		t.Helper()
		deadline := time.Now().Add(20 * time.Second)
		for {
			fs := follower.stats()
			if fs["epoch"] == wantEpoch && fs["clock"] == wantClock {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("follower stuck at epoch=%v clock=%v, want epoch=%v clock=%v\nfollower stats: %v\nfollower logs:\n%s",
					fs["epoch"], fs["clock"], wantEpoch, wantClock, fs, follower.logs)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	compare := func() {
		t.Helper()
		for _, path := range []string{"/topk", "/paths", "/paths.geojson", "/topk?sort=score&k=5", "/paths?min_hotness=2&bbox=0,0,700,200"} {
			pc, pb := primary.get(path)
			fc, fb := follower.get(path)
			if pc != http.StatusOK || fc != http.StatusOK {
				t.Fatalf("%s: primary %d, follower %d", path, pc, fc)
			}
			if !bytes.Equal(pb, fb) {
				t.Fatalf("%s diverged at tick %d:\nprimary:  %s\nfollower: %s", path, tick, pb, fb)
			}
		}
	}

	checked := 0
	for ; tick <= horizon; tick++ {
		feed(tick)

		switch tick {
		case 70:
			// Primary checkpoint + truncation mid-run.
			if code, b := primary.post("/admin/checkpoint", nil); code != http.StatusOK {
				t.Fatalf("checkpoint: %d %s", code, b)
			}
		case 90:
			// Forced follower reconnect mid-run.
			if code, b := follower.post("/admin/reconnect", nil); code != http.StatusOK {
				t.Fatalf("reconnect: %d %s", code, b)
			}
		}

		if tick%5 != 0 {
			continue
		}
		ps := primary.stats()
		awaitEpoch(ps["epoch"].(float64), ps["clock"].(float64))
		compare()
		checked++
	}
	if checked < 10 {
		t.Fatalf("only %d epochs compared", checked)
	}

	// The truncation really deleted segments (the point of checkpointing
	// with tiny segments), and the follower saw the forced reconnect.
	ps := primary.stats()
	if segs := ps["wal_segments"].(float64); segs > 20 {
		t.Errorf("wal_segments = %v; truncation never bit", segs)
	}
	fs := follower.stats()
	if fs["replication_reconnects"].(float64) < 1 {
		t.Errorf("follower never counted the forced reconnect: %v", fs)
	}
	if fs["replication_connected"] != true {
		t.Errorf("follower not connected at end: %v", fs)
	}

	// Writes on the follower are forbidden.
	if code, _ := follower.post("/observe", httpapi.ObserveRequest{Observations: e2eObservations(1), Tick: 0}); code != http.StatusForbidden {
		t.Errorf("follower observe: %d, want 403", code)
	}
	if code, _ := follower.post("/tick", httpapi.TickRequest{Now: 999}); code != http.StatusForbidden {
		t.Errorf("follower tick: %d, want 403", code)
	}

	// A second follower attaching after the truncation must bootstrap
	// from the checkpoint and converge to the same answers.
	late := startDaemon(t, bin, "-follow", primary.base)
	deadline := time.Now().Add(20 * time.Second)
	for {
		ls := late.stats()
		if ls["replication_bootstraps"].(float64) >= 1 && ls["epoch"] == ps["epoch"] && ls["clock"] == ps["clock"] {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("late follower never converged: %v\nlogs:\n%s", ls, late.logs)
		}
		time.Sleep(2 * time.Millisecond)
	}
	for _, path := range []string{"/topk", "/paths"} {
		_, pb := primary.get(path)
		_, lb := late.get(path)
		if !bytes.Equal(pb, lb) {
			t.Fatalf("late follower %s diverged:\nprimary: %s\nlate:    %s", path, pb, lb)
		}
	}

	// Graceful shutdown all around; non-zero exits would mean lost state.
	for _, d := range []*daemon{late, follower, primary} {
		d.stop()
		if code := d.cmd.ProcessState.ExitCode(); code != 0 {
			t.Errorf("daemon exited %d; logs:\n%s", code, d.logs)
		}
	}
}
