// Fixture for the locksnapshot analyzer: no O(paths) snapshots,
// blocking sends, or network I/O inside write-lock critical sections.
package a

import (
	"context"
	"net/http"
	"sync"

	"hotpaths/internal/tracing"
)

type store struct{ data map[string]int }

func (s *store) Snapshot() map[string]int {
	out := make(map[string]int, len(s.data))
	for k, v := range s.data {
		out[k] = v
	}
	return out
}

type engine struct {
	mu  sync.Mutex
	rw  sync.RWMutex
	st  *store
	ch  chan int
	cli *http.Client
}

func (e *engine) badSnapshot() map[string]int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.st.Snapshot() // want `Snapshot\(\) under the write lock`
}

func (e *engine) badSend() {
	e.rw.Lock()
	e.ch <- 1 // want `channel send while holding the write lock`
	e.rw.Unlock()
}

func (e *engine) badSelectSend() {
	e.mu.Lock()
	defer e.mu.Unlock()
	select {
	case e.ch <- 1: // want `select without default around this send`
	case <-e.ch:
	}
}

func (e *engine) badNet(req *http.Request) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, err := e.cli.Do(req) // want `network I/O \(http\.Do\) while holding the write lock`
	return err
}

// The *Locked suffix is the repo convention for "caller holds the
// lock": the whole body is a critical section.
func (e *engine) sendLocked() {
	e.ch <- 2 // want `channel send while holding the write lock`
}

// Allowed: compute under the lock, send after releasing it.
func (e *engine) goodSend() {
	e.mu.Lock()
	v := len(e.st.data)
	e.mu.Unlock()
	e.ch <- v
}

// Allowed: a non-blocking send cannot stall writers.
func (e *engine) goodSelectDefault() {
	e.mu.Lock()
	defer e.mu.Unlock()
	select {
	case e.ch <- 1:
	default:
	}
}

// Allowed: delegation from a method itself named Snapshot — the
// sanctioned pattern (Durable.Snapshot → sys.Snapshot under d.mu).
func (e *engine) Snapshot() map[string]int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.st.Snapshot()
}

// Allowed: RLock sections don't serialise writers against each other.
func (e *engine) goodRead() int {
	e.rw.RLock()
	defer e.rw.RUnlock()
	return e.st.Snapshot()["x"]
}

// Allowed: a reasoned suppression directive waives the finding.
func (e *engine) flushLocked() {
	//hotpathsvet:ignore locksnapshot flush barrier: the receiver always drains, and the lock is what keeps other senders out
	e.ch <- 3
}

// A span's body runs in place, so under the caller's lock.
func (e *engine) badSpanBody(ctx context.Context) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := tracing.Do(ctx, "append", func(context.Context, *tracing.Span) error {
		e.ch <- 2 // want `channel send while holding the write lock`
		return nil
	}); err != nil {
		return err
	}
	return tracing.Do(ctx, "tick", func(ctx context.Context, _ *tracing.Span) error {
		e.ch <- 1 // want `channel send while holding the write lock`
		return tracing.Do(ctx, "barrier", func(context.Context, *tracing.Span) error {
			_ = e.st.Snapshot() // want `Snapshot\(\) under the write lock`
			return nil
		})
	})
}

// Allowed: a span body that runs after the unlock.
func (e *engine) spanAfterUnlock(ctx context.Context) {
	e.mu.Lock()
	e.mu.Unlock()
	tracing.Do(ctx, "send", func(context.Context, *tracing.Span) error {
		e.ch <- 1
		return nil
	})
}
