package devsim

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"ava/internal/clock"
)

func newDev(memMB uint64) *Device {
	return New(Config{Name: "test-gpu", MemoryBytes: memMB << 20, ComputeUnits: 4})
}

func TestAllocFreeAccounting(t *testing.T) {
	d := newDev(1)
	a, err := d.Alloc(1024)
	if err != nil {
		t.Fatal(err)
	}
	if d.Used() != 1024 {
		t.Fatalf("used = %d", d.Used())
	}
	if err := d.FreeMem(a); err != nil {
		t.Fatal(err)
	}
	if d.Used() != 0 {
		t.Fatalf("used after free = %d", d.Used())
	}
	st := d.Stats()
	if st.Allocs != 1 || st.Frees != 1 || st.PeakMemUsed != 1024 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAllocOutOfMemory(t *testing.T) {
	d := New(Config{Name: "tiny", MemoryBytes: 4096})
	if _, err := d.Alloc(8192); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	a, err := d.Alloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Alloc(1); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory when full", err)
	}
	if err := d.FreeMem(a); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Alloc(4096); err != nil {
		t.Fatalf("alloc after free: %v", err)
	}
}

func TestZeroSizeAllocGetsDistinctAddrs(t *testing.T) {
	d := newDev(1)
	a, err := d.Alloc(0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.Alloc(0)
	if err != nil {
		t.Fatal(err)
	}
	if a == b || a == 0 || b == 0 {
		t.Fatalf("addresses %v %v", a, b)
	}
}

func TestCopyInOutRoundTrip(t *testing.T) {
	d := newDev(1)
	a, _ := d.Alloc(64)
	src := []byte("the quick brown fox jumps over the lazy accelerator....")
	if err := d.CopyIn(a, 4, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, len(src))
	if err := d.CopyOut(a, 4, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src, dst) {
		t.Fatalf("round trip mismatch: %q vs %q", src, dst)
	}
	st := d.Stats()
	if st.BytesH2D != uint64(len(src)) || st.BytesD2H != uint64(len(src)) || st.DMATransfers != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCopyBoundsChecked(t *testing.T) {
	d := newDev(1)
	a, _ := d.Alloc(16)
	if err := d.CopyIn(a, 10, make([]byte, 10)); !errors.Is(err, ErrBounds) {
		t.Fatalf("overflowing CopyIn: %v", err)
	}
	if err := d.CopyOut(a, 0, make([]byte, 17)); !errors.Is(err, ErrBounds) {
		t.Fatalf("overflowing CopyOut: %v", err)
	}
	if err := d.CopyIn(Addr(0xdead), 0, []byte{1}); !errors.Is(err, ErrBadAddr) {
		t.Fatalf("bad addr: %v", err)
	}
}

func TestCopyDevice(t *testing.T) {
	d := newDev(1)
	a, _ := d.Alloc(8)
	b, _ := d.Alloc(8)
	if err := d.CopyIn(a, 0, []byte{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	if err := d.CopyDevice(b, 2, a, 4, 4); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 8)
	if err := d.CopyOut(b, 0, out); err != nil {
		t.Fatal(err)
	}
	want := []byte{0, 0, 5, 6, 7, 8, 0, 0}
	if !bytes.Equal(out, want) {
		t.Fatalf("got %v want %v", out, want)
	}
}

func TestSnapshotIsACopy(t *testing.T) {
	d := newDev(1)
	a, _ := d.Alloc(4)
	d.CopyIn(a, 0, []byte{9, 9, 9, 9})
	snap, err := d.Snapshot(a)
	if err != nil {
		t.Fatal(err)
	}
	d.CopyIn(a, 0, []byte{1, 1, 1, 1})
	if !bytes.Equal(snap, []byte{9, 9, 9, 9}) {
		t.Fatal("snapshot aliases device memory")
	}
}

func TestMemAliasesDeviceMemory(t *testing.T) {
	d := newDev(1)
	a, _ := d.Alloc(4)
	mem, err := d.Mem(a)
	if err != nil {
		t.Fatal(err)
	}
	mem[0] = 42
	out := make([]byte, 1)
	d.CopyOut(a, 0, out)
	if out[0] != 42 {
		t.Fatal("Mem does not alias device memory")
	}
}

func TestRunKernelAccountsBusyTime(t *testing.T) {
	clk := clock.NewVirtual()
	d := New(Config{Name: "g", MemoryBytes: 1 << 20, Clock: clk})
	err := d.RunKernel("vm1", func() { clk.Advance(30 * time.Millisecond) })
	if err != nil {
		t.Fatal(err)
	}
	if got := d.BusyTime("vm1"); got != 30*time.Millisecond {
		t.Fatalf("busy = %v", got)
	}
	if got := d.BusyTime("vm2"); got != 0 {
		t.Fatalf("vm2 busy = %v", got)
	}
}

func TestRunKernelConcurrencyBounded(t *testing.T) {
	d := New(Config{Name: "g", MemoryBytes: 1 << 20, ComputeUnits: 2})
	var mu sync.Mutex
	cur, peak := 0, 0
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.RunKernel("c", func() {
				mu.Lock()
				cur++
				if cur > peak {
					peak = cur
				}
				mu.Unlock()
				time.Sleep(2 * time.Millisecond)
				mu.Lock()
				cur--
				mu.Unlock()
			})
		}()
	}
	wg.Wait()
	if peak > 2 {
		t.Fatalf("peak concurrency %d exceeds 2 compute units", peak)
	}
	if st := d.Stats(); st.KernelsRun != 16 {
		t.Fatalf("kernels run = %d", st.KernelsRun)
	}
}

func TestKernelOverheadCharged(t *testing.T) {
	clk := clock.NewVirtual()
	d := New(Config{Name: "g", MemoryBytes: 1 << 20, Clock: clk, KernelOverhead: 5 * time.Microsecond})
	t0 := clk.Now()
	d.RunKernel("c", func() {})
	if clk.Since(t0) != 5*time.Microsecond {
		t.Fatalf("launch overhead not charged: %v", clk.Since(t0))
	}
}

func TestDMAModelCharged(t *testing.T) {
	clk := clock.NewVirtual()
	d := New(Config{
		Name: "g", MemoryBytes: 1 << 20, Clock: clk,
		DMABandwidth: 1 << 30, DMALatency: 10 * time.Microsecond,
	})
	a, _ := d.Alloc(1 << 20)
	t0 := clk.Now()
	d.CopyIn(a, 0, make([]byte, 1<<20))
	elapsed := clk.Since(t0)
	mb := float64(1 << 20)
	gb := float64(1 << 30)
	want := 10*time.Microsecond + time.Duration(mb/gb*float64(time.Second))
	if elapsed < want-time.Microsecond || elapsed > want+time.Microsecond {
		t.Fatalf("modeled DMA time %v, want ~%v", elapsed, want)
	}
	if st := d.Stats(); st.TransferTime == 0 {
		t.Fatal("transfer time not recorded")
	}
}

func TestClosedDeviceRejectsEverything(t *testing.T) {
	d := newDev(1)
	a, _ := d.Alloc(8)
	d.Close()
	if _, err := d.Alloc(8); !errors.Is(err, ErrClosed) {
		t.Fatalf("Alloc after close: %v", err)
	}
	if err := d.CopyIn(a, 0, []byte{1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("CopyIn after close: %v", err)
	}
	if err := d.RunKernel("c", func() {}); !errors.Is(err, ErrClosed) {
		t.Fatalf("RunKernel after close: %v", err)
	}
}

func TestFreeUnknownAddr(t *testing.T) {
	d := newDev(1)
	if err := d.FreeMem(Addr(12345)); !errors.Is(err, ErrBadAddr) {
		t.Fatalf("err = %v", err)
	}
}

func TestSizeQuery(t *testing.T) {
	d := newDev(1)
	a, _ := d.Alloc(321)
	n, err := d.Size(a)
	if err != nil || n != 321 {
		t.Fatalf("size = %d, %v", n, err)
	}
}

// Property: for any sequence of alloc/free, Used equals the sum of live
// allocation sizes and never exceeds capacity.
func TestQuickAllocInvariant(t *testing.T) {
	f := func(ops []uint16) bool {
		d := New(Config{Name: "q", MemoryBytes: 1 << 16})
		live := map[Addr]uint64{}
		var sum uint64
		for _, op := range ops {
			size := uint64(op % 4096)
			if op%3 == 0 && len(live) > 0 {
				for a, n := range live {
					if d.FreeMem(a) != nil {
						return false
					}
					sum -= n
					delete(live, a)
					break
				}
				continue
			}
			a, err := d.Alloc(size)
			if err != nil {
				if !errors.Is(err, ErrOutOfMemory) {
					return false
				}
				continue
			}
			if size == 0 {
				size = 1
			}
			live[a] = size
			sum += size
		}
		return d.Used() == sum && d.Used() <= d.Capacity()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: CopyIn then CopyOut over random offsets returns the data.
func TestQuickCopyRoundTrip(t *testing.T) {
	d := newDev(4)
	a, _ := d.Alloc(1 << 16)
	f := func(off uint16, data []byte) bool {
		if len(data) > 1<<12 {
			data = data[:1<<12]
		}
		o := uint64(off) % ((1 << 16) - uint64(len(data)) - 1)
		if err := d.CopyIn(a, o, data); err != nil {
			return false
		}
		out := make([]byte, len(data))
		if err := d.CopyOut(a, o, out); err != nil {
			return false
		}
		return bytes.Equal(data, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCopyIn64K(b *testing.B) {
	d := newDev(64)
	a, _ := d.Alloc(1 << 16)
	buf := make([]byte, 1<<16)
	b.SetBytes(1 << 16)
	for i := 0; i < b.N; i++ {
		if err := d.CopyIn(a, 0, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunKernelNop(b *testing.B) {
	d := newDev(1)
	for i := 0; i < b.N; i++ {
		d.RunKernel("bench", func() {})
	}
}
