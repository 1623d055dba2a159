package mvnc

import "ava/internal/server"

var _ Implementation = (*Silo)(nil)

// BindServer registers the generated MVNC handlers (Register in
// stubs_gen.go, from mvnc.ava) against reg, executing on silo, which is the
// generated Implementation itself: MVNC needs no hook. BindServer also
// installs the silo's object-state Adapter on reg.
func BindServer(reg *server.Registry, silo *Silo) {
	Register(reg, silo)
	reg.Adapter = MigrationAdapter{Silo: silo}
}
