package marshal

// Scatter-gather call encoding. AppendCallSegments produces exactly the
// bytes AppendCall would — the wire format is unchanged and the receiver
// decodes one contiguous frame — but large KindBytes payloads are not
// copied into the frame. Instead each one becomes a Segment: a split point
// in the physical frame plus the borrowed payload slice that belongs
// there. A vectored transport (transport.VectoredSender) hands the frame
// pieces and the borrowed payloads to one writev, so the payload bytes go
// from the caller's buffer straight to the kernel with no user-space copy.
//
// Ownership: the segment bytes are borrowed from the caller of the API
// stub. The borrow ends when the vectored send returns (writev is
// synchronous); the guest library only takes this path for calls flushed
// inside the same critical section that encoded them, so no borrowed slice
// ever outlives its call.

// Segment is one borrowed payload of a segmented call encoding: the frame
// bytes at Off are virtually followed by Bytes.
type Segment struct {
	Off   int    // split point: byte offset in the physical frame
	Bytes []byte // borrowed payload belonging at Off
}

// SegmentThreshold is the default minimum payload size worth borrowing.
// Below it, the copy into the frame is cheaper than an extra iovec.
const SegmentThreshold = 16 << 10

// AppendCallSegments appends the encoding of c to b like AppendCall, but
// KindBytes arguments of at least minSeg bytes are returned as borrowed
// segments instead of being copied into the frame. Concatenating the frame
// with its segments spliced in at their offsets yields byte-for-byte the
// AppendCall encoding; the per-value length prefixes already count the
// segment bytes. minSeg <= 0 selects SegmentThreshold. segs is nil when
// nothing was worth borrowing (the result is then exactly AppendCall's).
func AppendCallSegments(b []byte, c *Call, minSeg int) (out []byte, segs []Segment) {
	if minSeg <= 0 {
		minSeg = SegmentThreshold
	}
	b = appendUint64(b, c.Seq)
	b = appendUint32(b, c.VM)
	b = appendUint32(b, c.Func)
	b = appendUint16(b, c.Flags)
	b = append(b, c.Priority)
	b = appendUint32(b, c.Epoch)
	b = appendUint64(b, uint64(c.Deadline))
	b = appendStamps(b, c.Stamps)
	b = appendUint16(b, uint16(len(c.Args)))
	for i := range c.Args {
		a := &c.Args[i]
		if a.kind == KindBytes && a.n >= uint64(minSeg) {
			b = append(b, byte(KindBytes))
			b = appendUint32(b, uint32(a.n))
			segs = append(segs, Segment{Off: len(b), Bytes: a.Bytes()})
			continue
		}
		b = appendValue(b, a)
	}
	return b, segs
}

// CallSegmentsSize returns the number of bytes AppendCallSegments(b, c,
// minSeg) appends to b: CallSize less the payloads it borrows.
func CallSegmentsSize(c *Call, minSeg int) int {
	if minSeg <= 0 {
		minSeg = SegmentThreshold
	}
	n := CallSize(c)
	for i := range c.Args {
		if a := &c.Args[i]; a.kind == KindBytes && a.n >= uint64(minSeg) {
			n -= int(a.n)
		}
	}
	return n
}

// SegmentsLen sums the borrowed payload bytes of segs: the difference
// between a segmented frame's virtual (wire) length and its physical one.
func SegmentsLen(segs []Segment) int {
	n := 0
	for _, s := range segs {
		n += len(s.Bytes)
	}
	return n
}

// SpliceSegments materializes a segmented encoding into one contiguous
// frame, appending to dst: the copying fallback for transports without a
// vectored send path. Segment offsets are interpreted relative to frame's
// start; they must be non-decreasing and within the frame, as
// AppendCallSegments produces them (offsets from a frame that started at a
// nonzero base must be rebased by the caller).
func SpliceSegments(dst, frame []byte, segs []Segment) []byte {
	prev := 0
	for _, s := range segs {
		dst = append(dst, frame[prev:s.Off]...)
		dst = append(dst, s.Bytes...)
		prev = s.Off
	}
	return append(dst, frame[prev:]...)
}
