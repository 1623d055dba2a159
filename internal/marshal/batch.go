package marshal

// Batch envelopes group encoded Call frames so the guest library can flush
// several asynchronously forwarded calls (plus, usually, one trailing
// synchronous call) in a single transport frame — the "API batching"
// optimization the paper adopts from rCUDA (§4.2). Every guest→server frame
// is a batch; replies travel unenveloped in the other direction.

// EncodeBatch wraps already-encoded call frames into one batch frame.
func EncodeBatch(calls [][]byte) []byte {
	total := 2
	for _, c := range calls {
		total += 4 + len(c)
	}
	b := make([]byte, 0, total)
	b = appendUint16(b, uint16(len(calls)))
	for _, c := range calls {
		b = appendUint32(b, uint32(len(c)))
		b = append(b, c...)
	}
	return b
}

// DecodeBatch splits a batch frame into its call frames. The returned
// slices alias b.
func DecodeBatch(b []byte) ([][]byte, error) {
	return DecodeBatchInto(nil, b)
}

// DecodeBatchInto is DecodeBatch appending to dst[:0], so a serve loop that
// passes the previous result back in splits every frame into the same
// backing array. A nil dst allocates exactly as DecodeBatch does.
func DecodeBatchInto(dst [][]byte, b []byte) ([][]byte, error) {
	r := Reader{b: b}
	n, err := r.U16()
	if err != nil {
		return nil, err
	}
	// An entry is at least its four-byte length prefix: a count the rest of
	// the frame cannot hold is refused before it sizes anything.
	if int(n) > len(r.Rest())/4 {
		return nil, ErrTruncated
	}
	if dst == nil || cap(dst) < int(n) {
		dst = make([][]byte, 0, n)
	}
	dst = dst[:0]
	for i := 0; i < int(n); i++ {
		ln, err := r.U32()
		if err != nil {
			return nil, err
		}
		frame, err := r.Bytes(int(ln))
		if err != nil {
			return nil, err
		}
		dst = append(dst, frame)
	}
	if r.off != len(b) {
		return nil, ErrTruncated
	}
	return dst, nil
}
