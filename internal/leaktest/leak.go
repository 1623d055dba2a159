// Package leaktest is the goroutine-leak check every test in the tree
// starts with. It imports nothing but the standard library, so the lowest
// packages of the stack (transport, server, guest) can use it too.
package leaktest

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// NoGoroutineLeaks snapshots the goroutines running now and, when the test
// ends, fails it if goroutines started since are still running after a
// bounded settle — accept loops, announcers, gossipers or serve loops that
// outlived the Kill or Shutdown of whatever the test started. Call it
// first in the test, so its check runs after every other cleanup.
func NoGoroutineLeaks(t testing.TB) {
	t.Helper()
	before := Goroutines()
	t.Cleanup(func() {
		var leaked []string
		deadline := time.Now().Add(2 * time.Second)
		for {
			leaked = leaked[:0]
			for id, stack := range Goroutines() {
				if _, old := before[id]; !old {
					leaked = append(leaked, stack)
				}
			}
			if len(leaked) == 0 {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Errorf("%d goroutine(s) left running:\n\n%s", len(leaked), strings.Join(leaked, "\n\n"))
	})
}

// Goroutines returns the stack of every live goroutine, keyed by the
// "goroutine N" of its header line, which is stable for its lifetime.
func Goroutines() map[string]string {
	var buf bytes.Buffer
	pprof.Lookup("goroutine").WriteTo(&buf, 2) // 2: the runtime.Stack text form
	out := make(map[string]string)
	for _, g := range strings.Split(buf.String(), "\n\n") {
		header, _, _ := strings.Cut(g, " [")
		out[header] = g
	}
	return out
}
