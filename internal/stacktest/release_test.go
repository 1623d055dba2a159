// Release tests: a server incarnation that ended — its link killed while
// the server and its silo live on, or its VM detached — gives back every
// object it held, so the replacement incarnation's replay finds exclusive
// devices free and the silo's memory stays where an undisturbed run leaves
// it.
package stacktest_test

import (
	"bytes"
	"testing"

	"ava"
	"ava/internal/cl"
	"ava/internal/failover"
	"ava/internal/leaktest"
	"ava/internal/mvnc"
	"ava/internal/qat"
	"ava/internal/server"
)

// sameSiloStack is one in-process stack with a guardian whose every
// recovery lands on the same silo: KillServer cuts only the link.
func sameSiloStack(t *testing.T, reg *server.Registry) *ava.Stack {
	t.Helper()
	stack := ava.NewStack(reg.Desc, reg, ava.WithFailover(ava.FailoverConfig{
		Checkpoint: ava.CheckpointConfig{Every: 2},
		Backoff:    failover.BackoffConfig{Seed: 7},
	}))
	t.Cleanup(stack.Close)
	return stack
}

// recoveredCleanly requires exactly one recovery and no call the guest
// lost to it.
func recoveredCleanly(t *testing.T, stack *ava.Stack, vm uint32) {
	t.Helper()
	if st := stack.Guardian(vm).Stats(); st.Recoveries != 1 {
		t.Fatalf("Recoveries = %d, want 1", st.Recoveries)
	}
	if rf := stack.GuestLib(vm).Stats().RetryableFailed; rf != 0 {
		t.Fatalf("RetryableFailed = %d, want 0", rf)
	}
}

// An MVNC stick is exclusive: the replayed mvncOpenDevice finds it free
// only if the dead incarnation closed it. Queued inferences cross the kill
// through the checkpoint, as on a machine kill.
func TestFailoverSameSiloMVNCLinkKill(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	blob := mvnc.GraphBlob("inception_v3_sim", 42, 10, 2048)
	batches := [][]int{{1, 2, 3}, {4, 5}}

	native := mvnc.NewNative(mvnc.NewSilo(mvnc.Config{Sticks: 1}))
	nd, _ := native.OpenDevice(0)
	ng, err := native.AllocateGraph(nd, "g", blob)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, ids := range batches {
		want = append(want, mvncInference(t, native, ng, ids, func() {})...)
	}

	reg := server.NewRegistry(mvnc.Descriptor())
	mvnc.BindServer(reg, mvnc.NewSilo(mvnc.Config{Sticks: 1}))
	stack := sameSiloStack(t, reg)
	lib, err := stack.AttachVM(ava.VMConfig{ID: 1, Name: "ncs-vm"})
	if err != nil {
		t.Fatal(err)
	}
	c := mvnc.NewRemote(lib)
	dev, err := c.OpenDevice(0)
	if err != nil {
		t.Fatal(err)
	}
	g, err := c.AllocateGraph(dev, "g", blob)
	if err != nil {
		t.Fatal(err)
	}
	got := mvncInference(t, c, g, batches[0], func() {
		if err := stack.Guardian(1).CheckpointNow(); err != nil {
			t.Fatal(err)
		}
		if err := stack.KillServer(1); err != nil {
			t.Fatal(err)
		}
	})
	got = append(got, mvncInference(t, c, g, batches[1], func() {})...)
	if !bytes.Equal(got, want) {
		t.Fatal("results after the link kill differ from the native run's")
	}
	recoveredCleanly(t, stack, 1)
}

// A QAT instance is exclusive too: the replayed qatStartInstance is refused
// while the dead incarnation still holds it.
func TestFailoverSameSiloQATLinkKill(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	inputs := [][]byte{
		bytes.Repeat([]byte("accelerator virtualization "), 200),
		bytes.Repeat([]byte("api remoting "), 300),
	}
	run := func(c qat.Client, between func()) (out []byte) {
		inst, err := c.StartInstance(0)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := c.SessionInit(inst, qat.DirCompress, 6)
		if err != nil {
			t.Fatal(err)
		}
		for i, src := range inputs {
			if i == 1 {
				between()
			}
			dst := make([]byte, 2*len(src))
			n, err := c.Compress(sess, src, dst)
			if err != nil {
				t.Fatalf("compress %d: %v", i, err)
			}
			digest, err := c.Hash(inst, src)
			if err != nil {
				t.Fatalf("hash %d: %v", i, err)
			}
			out = append(append(out, dst[:n]...), digest[:]...)
		}
		return out
	}
	want := run(qat.NewNative(qat.NewSilo(1)), func() {})

	reg := server.NewRegistry(qat.Descriptor())
	qat.BindServer(reg, qat.NewSilo(1))
	stack := sameSiloStack(t, reg)
	lib, err := stack.AttachVM(ava.VMConfig{ID: 1, Name: "qat-vm"})
	if err != nil {
		t.Fatal(err)
	}
	got := run(qat.NewRemote(lib), func() {
		if err := stack.Guardian(1).CheckpointNow(); err != nil {
			t.Fatal(err)
		}
		if err := stack.KillServer(1); err != nil {
			t.Fatal(err)
		}
	})
	if !bytes.Equal(got, want) {
		t.Fatal("results after the link kill differ from the native run's")
	}
	recoveredCleanly(t, stack, 1)
}

// siloUsage is what a cl silo holds: live buffers and device bytes.
type siloUsage struct {
	buffers int
	bytes   uint64
}

func usage(silo *cl.Silo) siloUsage {
	ds, _ := silo.GetDeviceIDs(silo.GetPlatformIDs()[0], cl.DeviceTypeGPU)
	return siloUsage{len(silo.LiveBuffers()), ds[0].Sim().Used()}
}

// Fifty link kills on one silo: after every recovery the silo holds exactly
// what it held undisturbed — the replayed buffers, not the replayed buffers
// plus every dead incarnation's.
func TestFailoverReconnectLoopReleasesBuffers(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	silo := foSilo()
	stack := foStack(silo, ava.WithFailover(foConfig()))
	defer stack.Close()
	lib, err := stack.AttachVM(ava.VMConfig{ID: 1, Name: "loop-vm"})
	if err != nil {
		t.Fatal(err)
	}
	c := cl.NewRemote(lib)
	ctx, q, buf := clSetup(t, c)
	if _, err := c.CreateBuffer(ctx, 1, 4096); err != nil {
		t.Fatal(err)
	}
	if err := c.Finish(q); err != nil {
		t.Fatal(err)
	}
	undisturbed := usage(silo)
	if undisturbed.buffers != 2 {
		t.Fatalf("undisturbed run holds %d buffers, want 2", undisturbed.buffers)
	}
	g := stack.Guardian(1)
	for kill := uint64(1); kill <= 50; kill++ {
		if err := stack.KillServer(1); err != nil {
			t.Fatal(err)
		}
		dst := make([]byte, 4096)
		if err := c.EnqueueRead(q, buf, true, 0, dst); err != nil {
			t.Fatalf("kill %d: read: %v", kill, err)
		}
		waitRecovered(t, g, kill)
		if got := usage(silo); got != undisturbed {
			t.Fatalf("after recovery %d the silo holds %+v, undisturbed %+v", kill, got, undisturbed)
		}
	}
	if rf := lib.Stats().RetryableFailed; rf != 0 {
		t.Fatalf("RetryableFailed = %d", rf)
	}
}

// Detaching a VM ends its incarnation: the silo is back to what it held
// before the VM attached.
func TestReleaseOnDetachRestoresSilo(t *testing.T) {
	leaktest.NoGoroutineLeaks(t)
	silo := foSilo()
	stack := foStack(silo)
	defer stack.Close()
	before := usage(silo)
	lib, err := stack.AttachVM(ava.VMConfig{ID: 1, Name: "detach-vm"})
	if err != nil {
		t.Fatal(err)
	}
	c := cl.NewRemote(lib)
	_, q, _ := clSetup(t, c)
	if err := c.Finish(q); err != nil {
		t.Fatal(err)
	}
	if usage(silo) == before {
		t.Fatal("the VM allocated nothing")
	}
	stack.DetachVM(1)
	if got := usage(silo); got != before {
		t.Fatalf("after detach the silo holds %+v, before attach %+v", got, before)
	}
}
