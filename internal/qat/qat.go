// Package qat simulates an Intel QuickAssist-style lookaside
// compression/crypto accelerator and its user-mode API — the paper's
// stated next target ("We plan to use AvA to auto-virtualize other
// accelerator APIs, including Intel QuickAssist", §5). It demonstrates the
// push-button property: a third accelerator family joins the AvA stack
// with nothing but a specification and a page of silo glue.
//
// The silo performs real work: DEFLATE compression (compress/flate) and
// SHA-256 digests executed on a devsim compute unit, so remoted-vs-native
// comparisons measure genuine offload against genuine API overhead.
package qat

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	_ "embed"
	"fmt"
	"io"
	"sync"

	"ava/internal/cava"
	"ava/internal/devsim"
	"ava/internal/server"
)

// Spec is the CAvA specification for the QAT-like API.
//
//go:embed qat.ava
var Spec string

// Descriptor compiles the QAT stack descriptor.
func Descriptor() *cava.Descriptor { return cava.MustCompile(Spec) }

// Status codes mirroring the spec.
const (
	OK             int32 = 0
	ErrFail        int32 = -1
	ErrInvalid     int32 = -2
	ErrNoInstance  int32 = -3
	ErrBufTooSmall int32 = -4

	DirCompress   uint32 = 0
	DirDecompress uint32 = 1
)

// Instance is one QAT engine.
type Instance struct {
	sim  *devsim.Device
	open bool
}

// Session is a compression session bound to an instance.
type Session struct {
	inst      *Instance
	direction uint32
	level     int
	dead      bool
}

// Silo is the QAT engine pool.
type Silo struct {
	mu        sync.Mutex
	instances []*Instance
}

// NewSilo creates a pool of n engines (default 2).
func NewSilo(n int) *Silo {
	if n <= 0 {
		n = 2
	}
	s := &Silo{}
	for i := 0; i < n; i++ {
		s.instances = append(s.instances, &Instance{
			sim: devsim.New(devsim.Config{
				Name:         fmt.Sprintf("qat%d", i),
				MemoryBytes:  64 << 20,
				ComputeUnits: 1,
			}),
		})
	}
	return s
}

// QatGetNumInstances reports the engine count.
func (s *Silo) QatGetNumInstances(*server.Context) (uint32, int32) {
	return uint32(len(s.instances)), OK
}

// QatStartInstance claims engine index.
func (s *Silo) QatStartInstance(_ *server.Context, index uint32) (*Instance, int32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if int(index) >= len(s.instances) {
		return nil, ErrNoInstance
	}
	inst := s.instances[index]
	if inst.open {
		return nil, ErrNoInstance
	}
	inst.open = true
	return inst, OK
}

// QatStopInstance releases an engine.
func (s *Silo) QatStopInstance(_ *server.Context, inst *Instance) int32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if inst == nil || !inst.open {
		return ErrInvalid
	}
	inst.open = false
	return OK
}

// QatSessionInit creates a session on an engine.
func (s *Silo) QatSessionInit(_ *server.Context, inst *Instance, direction, level uint32) (*Session, int32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if inst == nil || !inst.open {
		return nil, ErrInvalid
	}
	if direction != DirCompress && direction != DirDecompress {
		return nil, ErrInvalid
	}
	lv := int(level)
	if lv < 1 || lv > 9 {
		lv = flate.DefaultCompression
	}
	return &Session{inst: inst, direction: direction, level: lv}, OK
}

// QatSessionTeardown destroys a session.
func (s *Silo) QatSessionTeardown(_ *server.Context, sess *Session) int32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sess == nil || sess.dead {
		return ErrInvalid
	}
	sess.dead = true
	return OK
}

// QatCompress deflates src into dst, returning the produced byte count.
func (s *Silo) QatCompress(_ *server.Context, sess *Session, _ uint64, src []byte, _ uint64, dst []byte) (uint32, int32) {
	s.mu.Lock()
	if sess == nil || sess.dead || sess.direction != DirCompress {
		s.mu.Unlock()
		return 0, ErrInvalid
	}
	inst, level := sess.inst, sess.level
	s.mu.Unlock()

	var out bytes.Buffer
	st := OK
	err := inst.sim.RunKernel("qat", func() {
		w, werr := flate.NewWriter(&out, level)
		if werr != nil {
			st = ErrFail
			return
		}
		if _, werr := w.Write(src); werr != nil {
			st = ErrFail
			return
		}
		if werr := w.Close(); werr != nil {
			st = ErrFail
		}
	})
	if err != nil || st != OK {
		return 0, ErrFail
	}
	if out.Len() > len(dst) {
		return uint32(out.Len()), ErrBufTooSmall
	}
	copy(dst, out.Bytes())
	return uint32(out.Len()), OK
}

// QatDecompress inflates src into dst, returning the produced byte count.
func (s *Silo) QatDecompress(_ *server.Context, sess *Session, _ uint64, src []byte, _ uint64, dst []byte) (uint32, int32) {
	s.mu.Lock()
	if sess == nil || sess.dead || sess.direction != DirDecompress {
		s.mu.Unlock()
		return 0, ErrInvalid
	}
	inst := sess.inst
	s.mu.Unlock()

	var out []byte
	st := OK
	err := inst.sim.RunKernel("qat", func() {
		r := flate.NewReader(bytes.NewReader(src))
		defer r.Close()
		var rerr error
		out, rerr = io.ReadAll(io.LimitReader(r, int64(len(dst))+1))
		if rerr != nil {
			st = ErrFail
		}
	})
	if err != nil || st != OK {
		return 0, ErrFail
	}
	if len(out) > len(dst) {
		return uint32(len(out)), ErrBufTooSmall
	}
	copy(dst, out)
	return uint32(len(out)), OK
}

// QatHash computes a SHA-256 digest of src into digest (32 bytes).
func (s *Silo) QatHash(_ *server.Context, inst *Instance, _ uint64, src, digest []byte) int32 {
	s.mu.Lock()
	if inst == nil || !inst.open {
		s.mu.Unlock()
		return ErrInvalid
	}
	s.mu.Unlock()
	if len(digest) < sha256.Size {
		return ErrBufTooSmall
	}
	err := inst.sim.RunKernel("qat", func() {
		sum := sha256.Sum256(src)
		copy(digest, sum[:])
	})
	if err != nil {
		return ErrFail
	}
	return OK
}
