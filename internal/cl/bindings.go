package cl

import "ava/internal/server"

// The OpenCL API server is generated (Register in stubs_gen.go, from
// opencl.ava): handle resolution and insertion, invalid-handle statuses, handle
// arrays in buffers, absent outs, the out-of-memory mapping and
// release-drops-the-handle all come from the specification. The silo is the
// generated Implementation itself; what the specification cannot say is three
// named hooks — Released below, ClCreateContext's owner label and
// ClSetKernelArg's buffer-or-bytes argument (silo.go).

var _ Implementation = (*Silo)(nil)

// BindServer registers the generated OpenCL handlers against reg, executing
// on silo, and installs the silo's object-state Adapter, so every registry
// it builds can be checkpointed, migrated and restored.
func BindServer(reg *server.Registry, silo *Silo) {
	Register(reg, silo)
	reg.Adapter = MigrationAdapter{Silo: silo}
}

// Released implements the specification's `refcounted` for each object type:
// a release that was not the last leaves the guest's handle in place.
func (c *Context) Released() bool { return c.dead }
func (q *Queue) Released() bool   { return q.dead }
func (m *Mem) Released() bool     { return m.dead }
func (p *Program) Released() bool { return p.dead }
func (k *Kernel) Released() bool  { return k.dead }
func (e *Event) Released() bool   { return e.refs <= 0 }
