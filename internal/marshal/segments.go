package marshal

// Scatter-gather call and reply encoding. AppendCallSegments produces
// exactly the bytes AppendCall would (AppendReplySegments those of
// AppendReply) — the wire format is unchanged and the receiver
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
// ever outlives its call. A reply's segments are borrowed from the API
// server's out buffers, which stay the call's until its reply is sent.

// Segment is one borrowed payload of a segmented encoding: the frame
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
		b, segs = appendValueSegment(b, segs, &c.Args[i], minSeg)
	}
	return b, segs
}

// CallSegmentsSize returns the number of bytes AppendCallSegments(b, c,
// minSeg) appends to b: CallSize less the payloads it borrows.
func CallSegmentsSize(c *Call, minSeg int) int {
	return CallSize(c) - borrowedLen(c.Args, minSeg)
}

// AppendReplySegments is AppendCallSegments for replies: it appends the
// encoding of rep to b like AppendReply, but KindBytes outputs of at least
// minSeg bytes are appended to segs as borrowed segments instead of being
// copied into the frame. The API server's reply to a read thus carries the
// handler's out buffer to a vectored transport without a reply frame the
// size of the data.
func AppendReplySegments(b []byte, segs []Segment, rep *Reply, minSeg int) ([]byte, []Segment) {
	if minSeg <= 0 {
		minSeg = SegmentThreshold
	}
	b = appendReplyHead(b, rep)
	for i := range rep.Outs {
		b, segs = appendValueSegment(b, segs, &rep.Outs[i], minSeg)
	}
	return b, segs
}

// ReplySegmentsSize returns the number of bytes AppendReplySegments(b, segs,
// rep, minSeg) appends to b: ReplySize less the payloads it borrows.
func ReplySegmentsSize(rep *Reply, minSeg int) int {
	return ReplySize(rep) - borrowedLen(rep.Outs, minSeg)
}

// appendValueSegment appends a to b like appendValue, except that a
// KindBytes payload of at least minSeg bytes is not copied: only its kind
// and length go into b, and the payload is appended to segs, borrowed at
// the end of b.
func appendValueSegment(b []byte, segs []Segment, a *Value, minSeg int) ([]byte, []Segment) {
	if a.kind != KindBytes || a.n < uint64(minSeg) {
		return appendValue(b, a), segs
	}
	b = append(b, byte(KindBytes))
	b = appendUint32(b, uint32(a.n))
	return b, append(segs, Segment{Off: len(b), Bytes: a.Bytes()})
}

// borrowedLen sums the payloads appendValueSegment would borrow from vals.
func borrowedLen(vals []Value, minSeg int) int {
	if minSeg <= 0 {
		minSeg = SegmentThreshold
	}
	n := 0
	for i := range vals {
		if a := &vals[i]; a.kind == KindBytes && a.n >= uint64(minSeg) {
			n += int(a.n)
		}
	}
	return n
}

// AppendParts appends a segmented encoding's pieces to parts in wire order —
// frame split at each segment offset, the borrowed payloads in between —
// as a vectored send takes them.
func AppendParts(parts [][]byte, frame []byte, segs []Segment) [][]byte {
	prev := 0
	for _, s := range segs {
		parts = append(parts, frame[prev:s.Off], s.Bytes)
		prev = s.Off
	}
	return append(parts, frame[prev:])
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
