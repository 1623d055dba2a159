package host

import (
	"sync"
	"time"

	"ava/internal/transport"
)

// listener is the one accept-and-track mechanism every listening socket of
// a host shares — VM connections, mirror replication streams and registry
// clients alike: accept, run a per-connection serve function, remember
// the endpoint while it runs, and end them all either in order (drain)
// or mid-stream (severAll, a crash).
type listener struct {
	l *transport.Listener

	mu      sync.Mutex
	eps     map[transport.Endpoint]struct{}
	stopped bool
	wg      sync.WaitGroup // the accept loop and every serve goroutine
}

// listen binds addr and serves each accepted connection with serve in its
// own goroutine. serve owns the endpoint and closes it on return.
func listen(addr string, serve func(transport.Endpoint)) (*listener, error) {
	tl, err := transport.Listen(addr)
	if err != nil {
		return nil, err
	}
	l := &listener{l: tl, eps: make(map[transport.Endpoint]struct{})}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		for {
			ep, err := tl.Accept()
			if err != nil {
				return
			}
			if !l.track(ep) {
				ep.Close() // raced a stop: refuse, do not serve
				continue
			}
			go func() {
				defer l.wg.Done()
				defer l.untrack(ep)
				serve(ep)
			}()
		}
	}()
	return l, nil
}

func (l *listener) addr() string { return l.l.Addr() }

func (l *listener) track(ep transport.Endpoint) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.stopped {
		return false
	}
	l.eps[ep] = struct{}{}
	l.wg.Add(1)
	return true
}

func (l *listener) untrack(ep transport.Endpoint) {
	l.mu.Lock()
	delete(l.eps, ep)
	l.mu.Unlock()
}

// stop closes the listening socket; established connections keep running.
func (l *listener) stop() {
	l.mu.Lock()
	l.stopped = true
	l.mu.Unlock()
	l.l.Close()
}

// severAll hard-resets every live connection: the peer sees ErrSevered,
// what a SIGKILLed process leaves behind.
func (l *listener) severAll() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for ep := range l.eps {
		transport.Sever(ep)
	}
}

// drain waits up to budget for the live connections to end on their own,
// then closes the ones that did not in order — the peer reads
// end-of-stream — and returns how many it had to close once every serve
// goroutine has exited. Call after stop.
func (l *listener) drain(budget time.Duration) int {
	drained := make(chan struct{})
	go func() {
		l.wg.Wait()
		close(drained)
	}()
	t := time.NewTimer(budget)
	defer t.Stop()
	select {
	case <-drained:
		return 0
	case <-t.C:
	}
	l.mu.Lock()
	n := len(l.eps)
	for ep := range l.eps {
		ep.Close()
	}
	l.mu.Unlock()
	<-drained
	return n
}
