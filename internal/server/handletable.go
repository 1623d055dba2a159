// Package server implements the AvA API server: the unprivileged host
// process that executes forwarded API calls against the accelerator silo on
// behalf of guest applications (§4.1).
//
// Each guest VM gets its own Context — the process-level isolation analogue
// — holding a private handle table that maps guest-visible opaque handles to
// real silo objects, per-VM accounting and the deferred-error slot for
// asynchronously forwarded calls. A
// Registry binds a compiled Descriptor's functions to Go handlers provided
// by a silo binding (the generated API server component).
package server

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"ava/internal/marshal"
)

// HandleTable maps guest-visible handles to silo objects. Tables are
// per-VM, so one guest can neither forge nor observe another's objects —
// the isolation property §4.1 requires of the API server.
type HandleTable struct {
	mu   sync.Mutex
	next uint64
	m    map[marshal.Handle]any
}

// NewHandleTable returns an empty table.
func NewHandleTable() *HandleTable {
	return &HandleTable{next: 1, m: make(map[marshal.Handle]any)}
}

// Insert registers obj and returns its new handle.
func (t *HandleTable) Insert(obj any) marshal.Handle {
	t.mu.Lock()
	defer t.mu.Unlock()
	h := marshal.Handle(t.next)
	t.next++
	t.m[h] = obj
	return h
}

// InsertAt registers obj under a specific handle value, used by migration
// replay to rebuild a table whose handle values the guest already holds.
// It fails if the handle is already bound.
func (t *HandleTable) InsertAt(h marshal.Handle, obj any) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.m[h]; dup {
		return fmt.Errorf("server: handle %d already bound", h)
	}
	t.m[h] = obj
	if uint64(h) >= t.next {
		t.next = uint64(h) + 1
	}
	return nil
}

// Get resolves a handle.
func (t *HandleTable) Get(h marshal.Handle) (any, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	obj, ok := t.m[h]
	return obj, ok
}

// Remove deletes a handle and returns the object it referenced.
func (t *HandleTable) Remove(h marshal.Handle) (any, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	obj, ok := t.m[h]
	if ok {
		delete(t.m, h)
	}
	return obj, ok
}

// Len returns the number of live handles.
func (t *HandleTable) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

// Handles returns all live handles in ascending order.
func (t *HandleTable) Handles() []marshal.Handle {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]marshal.Handle, 0, len(t.m))
	for h := range t.m {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ForEach visits every live (handle, object) pair in ascending handle
// order. The table lock is not held during visits.
func (t *HandleTable) ForEach(visit func(marshal.Handle, any)) {
	for _, h := range t.Handles() {
		if obj, ok := t.Get(h); ok {
			visit(h, obj)
		}
	}
}

// The functions below are the handle plumbing every generated API server
// shares (cava emits calls to them; see internal/cava/gen.go): a handle
// argument is resolved to the silo's type for it, a handle the call produces
// is inserted, and handle arrays travel in buffers as 8-byte little-endian
// elements. A fresh insertion is Handles.Insert and a drop is Handles.Remove.

// Resolve fetches the silo object of type T behind a guest handle; ok is
// false for a handle that is absent from the VM's table or names an object
// of another type.
func Resolve[T any](c *Context, h marshal.Handle) (T, bool) {
	obj, _ := c.Handles.Get(h)
	t, ok := obj.(T)
	return t, ok
}

// ResolveList resolves a buffer of handles (an event wait list, a device
// list); ok is false if any entry does not resolve. An empty buffer yields
// nil without allocating.
func ResolveList[T any](c *Context, src []byte) ([]T, bool) {
	if len(src) < 8 {
		return nil, true
	}
	out := make([]T, len(src)/8)
	for i := range out {
		t, ok := Resolve[T](c, marshal.Handle(binary.LittleEndian.Uint64(src[8*i:])))
		if !ok {
			return nil, false
		}
		out[i] = t
	}
	return out, true
}

// InsertStable returns the handle obj already has in this VM's table, or
// inserts it: for objects the silo hands out again on every query (`stable`
// handle declarations — platforms, devices), which must keep one guest
// handle. The lock is held across the lookup-or-insert so two dispatch
// workers cannot mint distinct handles for one object; the liveness check
// matters after Rebind or a drop, which move and remove table entries
// underneath this cache.
func (c *Context) InsertStable(obj any) marshal.Handle {
	c.mu.Lock()
	defer c.mu.Unlock()
	if h, ok := c.stable[obj]; ok {
		if got, live := c.Handles.Get(h); live && got == obj {
			return h
		}
	}
	if c.stable == nil {
		c.stable = make(map[any]marshal.Handle)
	}
	h := c.Handles.Insert(obj)
	c.stable[obj] = h
	return h
}

// PublishList inserts every object the silo wrote into objs (nil entries
// are skipped) and stores the handles into dst, an out buffer of handle
// elements.
func PublishList[T comparable](c *Context, dst []byte, objs []T, stable bool) {
	insert := c.Handles.Insert
	if stable {
		insert = c.InsertStable
	}
	var none T
	for i, obj := range objs {
		if obj != none && 8*i+8 <= len(dst) {
			binary.LittleEndian.PutUint64(dst[8*i:], uint64(insert(obj)))
		}
	}
}
