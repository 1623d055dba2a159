package stacktest_test

import (
	"ava/internal/leaktest"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"ava/internal/cava"
	"ava/internal/guest"
	"ava/internal/marshal"
	"ava/internal/server"
	"ava/internal/transport"
)

// The stress API models the shape pipelining must preserve: a handle that
// is an ordering domain (an OpenCL command queue), an async op and a sync
// op on it, and a handle-less sync op sharing the fallback domain. %[1]s is
// each function's resource clause: with none the server runs a call on its
// receiving goroutine while the VM has nothing on a worker; with one it
// runs every call on its dispatch workers, so the per-domain worker queues,
// the cross-worker barrier and the workers' drain on close carry the load.
const stressSpecTmpl = `
api "stress" version "1.0";

handle q;

const OK = 0;

type status = int32_t { success(OK); };

status openQueue(uint32_t idx, q *out) {
  parameter(out) { out; element { allocates; } }
  track(create, out);
  %[1]s
}

status mark(q qq, uint64_t token) {
  async;
  %[1]s
}

status ping(q qq, uint64_t token, uint64_t *echo) {
  parameter(echo) { out; element; }
  %[1]s
}

status total(uint64_t *n) {
  parameter(n) { out; element; }
  %[1]s
}
`

// stressSpecs are the two inputs of the stress tests, by subtest suffix.
var stressSpecs = []struct{ suffix, spec string }{
	{"", fmt.Sprintf(stressSpecTmpl, "")},
	{"_resourced", fmt.Sprintf(stressSpecTmpl, "resource(device_time, 1);")},
}

// echoOf is the reply fingerprint ping computes server-side: it folds the
// queue handle into the token so a reply misrouted to another caller (a
// demux seq-matching bug) can never verify.
func echoOf(h marshal.Handle, token uint64) uint64 {
	return token ^ (uint64(h) * 0x9E3779B97F4A7C15)
}

// recorder is the silo: it logs the execution order of tokens per queue
// handle, which is exactly the per-domain FIFO the server must preserve.
type recorder struct {
	mu     sync.Mutex
	queues map[marshal.Handle][]uint64
	totals uint64
}

func stressServer(t *testing.T, spec string) (*server.Server, *recorder, *cava.Descriptor) {
	t.Helper()
	desc := cava.MustCompile(spec)
	rec := &recorder{queues: make(map[marshal.Handle][]uint64)}
	reg := server.NewRegistry(desc)
	reg.MustRegister("openQueue", func(inv *server.Invocation) error {
		h := inv.Ctx.Handles.Insert(new(int))
		inv.SetOutHandle(1, h)
		inv.SetStatus(0)
		return nil
	})
	record := func(inv *server.Invocation) marshal.Handle {
		h := inv.Handle(0)
		rec.mu.Lock()
		rec.queues[h] = append(rec.queues[h], inv.Uint(1))
		rec.mu.Unlock()
		return h
	}
	reg.MustRegister("mark", func(inv *server.Invocation) error {
		record(inv)
		inv.SetStatus(0)
		return nil
	})
	reg.MustRegister("ping", func(inv *server.Invocation) error {
		h := record(inv)
		inv.SetOutUint(2, echoOf(h, inv.Uint(1)))
		inv.SetStatus(0)
		return nil
	})
	reg.MustRegister("total", func(inv *server.Invocation) error {
		rec.mu.Lock()
		rec.totals++
		n := rec.totals
		rec.mu.Unlock()
		inv.SetOutUint(0, n)
		inv.SetStatus(0)
		return nil
	})
	return server.New(reg), rec, desc
}

// stressTransports yields a guest/server endpoint pair per transport kind.
func stressTransports(t *testing.T) map[string]func() (transport.Endpoint, transport.Endpoint) {
	t.Helper()
	return map[string]func() (transport.Endpoint, transport.Endpoint){
		"inproc": func() (transport.Endpoint, transport.Endpoint) {
			return transport.NewInProc()
		},
		"ring": func() (transport.Endpoint, transport.Endpoint) {
			return transport.NewRing(1 << 14)
		},
		"tcp": func() (transport.Endpoint, transport.Endpoint) {
			l, err := transport.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			accepted := make(chan transport.Endpoint, 1)
			go func() {
				ep, err := l.Accept()
				if err != nil {
					close(accepted)
					return
				}
				accepted <- ep
			}()
			gep, err := transport.Dial(l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			sep, ok := <-accepted
			if !ok {
				t.Fatal("accept failed")
			}
			return gep, sep
		},
	}
}

// TestPipelinedStress drives one Lib from 16 goroutines, each owning its
// own queue (= ordering domain), over every transport and both stressSpecs. It asserts the two
// properties pipelining must not break: every sync reply reaches the call
// that issued it (the echo check), and the server executes each domain's
// calls in issue order (the recorder check).
func TestPipelinedStress(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	const goroutines = 16
	const tokens = 200
	for name, mk := range stressTransports(t) {
		for _, in := range stressSpecs {
			t.Run(name+in.suffix, func(t *testing.T) {
				srv, rec, desc := stressServer(t, in.spec)
				gep, sep := mk()
				ctx := srv.Context(1, "stress-vm")
				serveDone := make(chan error, 1)
				go func() { serveDone <- srv.ServeVM(ctx, sep) }()
				lib := guest.New(desc, gep)

				handles := make([]marshal.Handle, goroutines)
				var wg sync.WaitGroup
				errs := make(chan error, goroutines)
				for g := 0; g < goroutines; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						var h marshal.Handle
						if _, err := lib.Call("openQueue", uint32(g), &h); err != nil {
							errs <- fmt.Errorf("goroutine %d: openQueue: %w", g, err)
							return
						}
						handles[g] = h
						rng := rand.New(rand.NewSource(int64(g)))
						for tok := uint64(0); tok < tokens; tok++ {
							if rng.Intn(4) == 0 {
								// Async mark: ordered into the domain without
								// waiting.
								if _, err := lib.Call("mark", h, tok); err != nil {
									errs <- fmt.Errorf("goroutine %d: mark %d: %w", g, tok, err)
									return
								}
								continue
							}
							var echo uint64
							if _, err := lib.Call("ping", h, tok, &echo); err != nil {
								errs <- fmt.Errorf("goroutine %d: ping %d: %w", g, tok, err)
								return
							}
							if want := echoOf(h, tok); echo != want {
								errs <- fmt.Errorf("goroutine %d: ping %d echoed %#x, want %#x (reply misrouted)", g, tok, echo, want)
								return
							}
						}
					}(g)
				}
				waitTimeout(t, &wg, 60*time.Second, "stress goroutines")
				close(errs)
				for err := range errs {
					t.Error(err)
				}
				// A final sync call is a synchronization point: all async marks
				// have executed once it returns.
				var n uint64
				if _, err := lib.Call("total", &n); err != nil {
					t.Fatal(err)
				}

				rec.mu.Lock()
				defer rec.mu.Unlock()
				if len(rec.queues) != goroutines {
					t.Fatalf("server saw %d domains, want %d", len(rec.queues), goroutines)
				}
				for g, h := range handles {
					got := rec.queues[h]
					if len(got) != tokens {
						t.Fatalf("goroutine %d: domain executed %d calls, want %d", g, len(got), tokens)
					}
					for i, tok := range got {
						if tok != uint64(i) {
							t.Fatalf("goroutine %d: domain order[%d] = %d (FIFO violated)", g, i, tok)
						}
					}
				}

				if err := lib.Close(); err != nil && !errors.Is(err, transport.ErrClosed) {
					t.Fatalf("close: %v", err)
				}
				sep.Close()
				select {
				case err := <-serveDone:
					if err != nil {
						t.Fatalf("serve loop: %v", err)
					}
				case <-time.After(30 * time.Second):
					t.Fatal("serve loop did not exit after close")
				}
			})
		}
	}
}

// TestPipelinedCloseMidFlight closes the Lib while 16 goroutines have
// calls in flight: every caller must return (successfully or with a
// transport error), and the server loop must exit — no goroutine may
// deadlock on a reply that will never come. Over both stressSpecs.
func TestPipelinedCloseMidFlight(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	const goroutines = 16
	for name, mk := range stressTransports(t) {
		for _, in := range stressSpecs {
			t.Run(name+in.suffix, func(t *testing.T) {
				srv, _, desc := stressServer(t, in.spec)
				gep, sep := mk()
				ctx := srv.Context(1, "close-vm")
				serveDone := make(chan error, 1)
				go func() { serveDone <- srv.ServeVM(ctx, sep) }()
				lib := guest.New(desc, gep)

				var wg sync.WaitGroup
				start := make(chan struct{})
				for g := 0; g < goroutines; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						var h marshal.Handle
						if _, err := lib.Call("openQueue", uint32(g), &h); err != nil {
							return
						}
						<-start
						for tok := uint64(0); ; tok++ {
							var echo uint64
							if _, err := lib.Call("ping", h, tok, &echo); err != nil {
								return // expected once the lib closes
							}
						}
					}(g)
				}
				close(start)
				time.Sleep(10 * time.Millisecond) // let calls get in flight
				if err := lib.Close(); err != nil && !errors.Is(err, transport.ErrClosed) {
					t.Fatalf("close: %v", err)
				}
				waitTimeout(t, &wg, 60*time.Second, "callers after close")
				sep.Close()
				select {
				case <-serveDone:
				case <-time.After(30 * time.Second):
					t.Fatal("serve loop did not exit after close")
				}
			})
		}
	}
}

func waitTimeout(t *testing.T, wg *sync.WaitGroup, d time.Duration, what string) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatal("deadlock: timed out waiting for " + what)
	}
}
