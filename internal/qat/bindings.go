package qat

import "ava/internal/server"

var _ Implementation = (*Silo)(nil)

// BindServer registers the generated QAT handlers (Register in stubs_gen.go,
// from qat.ava) against reg, executing on silo, which is the generated
// Implementation itself: QAT needs no hook, and no object-state Adapter
// either — instances and sessions are configured entirely by their creation
// calls and every data buffer is call-scoped, so replay rebuilds them all.
func BindServer(reg *server.Registry, silo *Silo) { Register(reg, silo) }
