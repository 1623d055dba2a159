package marshal

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"ava/internal/averr"
)

func sampleValues() []Value {
	return []Value{
		Null(),
		Int(-42),
		Int(math.MaxInt64),
		Uint(7),
		Uint(math.MaxUint64),
		Float(3.14159),
		Float(math.Inf(-1)),
		Bool(true),
		Bool(false),
		Str(""),
		Str("clEnqueueReadBuffer"),
		BytesVal(nil),
		BytesVal([]byte{1, 2, 3, 4, 5}),
		Len(1 << 20),
		HandleVal(99),
	}
}

func TestValueRoundTripAllKinds(t *testing.T) {
	for _, v := range sampleValues() {
		b := appendValue(nil, &v)
		r := &Reader{b: b}
		var got Value
		err := r.value(&got)
		if err != nil {
			t.Fatalf("%v: decode: %v", v, err)
		}
		if !got.Equal(v) {
			t.Errorf("round trip %v -> %v", v, got)
		}
		if r.off != len(b) {
			t.Errorf("%v: %d bytes left over", v, len(b)-r.off)
		}
	}
}

func TestCallRoundTrip(t *testing.T) {
	c := &Call{
		Seq:   12345,
		VM:    3,
		Func:  17,
		Flags: FlagAsync | FlagBatched,
		Args:  sampleValues(),
	}
	got, err := DecodeCall(EncodeCall(c))
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != c.Seq || got.VM != c.VM || got.Func != c.Func || got.Flags != c.Flags {
		t.Fatalf("header mismatch: %+v vs %+v", got, c)
	}
	if len(got.Args) != len(c.Args) {
		t.Fatalf("args len %d want %d", len(got.Args), len(c.Args))
	}
	for i := range c.Args {
		if !got.Args[i].Equal(c.Args[i]) {
			t.Errorf("arg %d: %v want %v", i, got.Args[i], c.Args[i])
		}
	}
}

func TestCallRoundTripNoArgs(t *testing.T) {
	c := &Call{Seq: 1, VM: 0, Func: 0}
	got, err := DecodeCall(EncodeCall(c))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Args) != 0 {
		t.Fatalf("want no args, got %d", len(got.Args))
	}
}

func TestReplyRoundTrip(t *testing.T) {
	rep := &Reply{
		Seq:    9,
		Status: StatusAPIError,
		Err:    "denied: rate limit",
		Ret:    Int(-5),
		Outs:   []Value{BytesVal([]byte("abc")), Null(), HandleVal(4)},
	}
	got, err := DecodeReply(EncodeReply(rep))
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != rep.Seq || got.Status != rep.Status || got.Err != rep.Err {
		t.Fatalf("header mismatch: %+v", got)
	}
	if !got.Ret.Equal(rep.Ret) {
		t.Fatalf("ret %v want %v", got.Ret, rep.Ret)
	}
	for i := range rep.Outs {
		if !got.Outs[i].Equal(rep.Outs[i]) {
			t.Errorf("out %d: %v want %v", i, got.Outs[i], rep.Outs[i])
		}
	}
}

func TestDecodeCallTruncated(t *testing.T) {
	full := EncodeCall(&Call{Seq: 1, Args: []Value{Str("hello"), Int(1)}})
	for n := 0; n < len(full); n++ {
		if _, err := DecodeCall(full[:n]); err == nil {
			t.Fatalf("truncation at %d/%d not detected", n, len(full))
		}
	}
}

func TestDecodeReplyTruncated(t *testing.T) {
	full := EncodeReply(&Reply{Seq: 1, Err: "x", Ret: Float(2), Outs: []Value{BytesVal([]byte{9})}})
	for n := 0; n < len(full); n++ {
		if _, err := DecodeReply(full[:n]); err == nil {
			t.Fatalf("truncation at %d/%d not detected", n, len(full))
		}
	}
}

func TestDecodeCallTrailingGarbage(t *testing.T) {
	b := EncodeCall(&Call{Seq: 1})
	b = append(b, 0xAA)
	if _, err := DecodeCall(b); err == nil {
		t.Fatal("trailing bytes not detected")
	}
}

func TestDecodeBadKind(t *testing.T) {
	b := EncodeCall(&Call{Seq: 1, Args: []Value{Int(5)}})
	// Arg kind byte is right after the fixed header.
	b[CallHeaderSize] = 0xEE
	if _, err := DecodeCall(b); err == nil {
		t.Fatal("bad kind not detected")
	}
}

func TestDecodeOversizedString(t *testing.T) {
	c := &Call{Seq: 1, Args: []Value{Str("abcd")}}
	b := EncodeCall(c)
	// Inflate the declared string length far beyond the frame.
	b[CallHeaderSize+1] = 0xFF
	b[CallHeaderSize+2] = 0xFF
	b[CallHeaderSize+3] = 0xFF
	b[CallHeaderSize+4] = 0x7F
	if _, err := DecodeCall(b); err == nil {
		t.Fatal("oversized string not detected")
	}
}

func TestBytesDecodeAliasesFrame(t *testing.T) {
	// Zero-copy contract: decoded buffers alias the frame; retainers must
	// clone explicitly.
	frame := EncodeCall(&Call{Seq: 1, Args: []Value{BytesVal([]byte{1, 2, 3})}})
	c, err := DecodeCall(frame)
	if err != nil {
		t.Fatal(err)
	}
	frame[len(frame)-1] = 0xFF
	if c.Args[0].Bytes()[2] != 0xFF {
		t.Fatal("decode copied; the hot path should alias")
	}
}

// A Value is four words: argument vectors are copied, cleared and passed by
// value on every call, which is what the seven-field, 96-byte form cost.
func TestValueIsFourWords(t *testing.T) {
	if size := reflect.TypeOf(Value{}).Size(); size > 32 {
		t.Fatalf("marshal.Value is %d bytes, want at most 32", size)
	}
}

// Accessors answer for the kinds they are documented for and return the zero
// value for every other kind — never another kind's word reinterpreted.
func TestValueAccessorsAreKindChecked(t *testing.T) {
	all := []Value{Null(), Int(-1), Uint(2), Float(3.5), Bool(true), Str("s"), BytesVal([]byte("b")), Len(4), HandleVal(5)}
	for _, v := range all {
		k := v.Kind()
		if got := v.Int(); (got != 0) != (k == KindInt) {
			t.Errorf("%v.Int() = %d", v, got)
		}
		if got := v.Uint(); (got != 0) != (k == KindUint || k == KindHandle || k == KindLen) {
			t.Errorf("%v.Uint() = %d", v, got)
		}
		if got := v.Float(); (got != 0) != (k == KindFloat) {
			t.Errorf("%v.Float() = %g", v, got)
		}
		if got := v.Bool(); got != (k == KindBool) {
			t.Errorf("%v.Bool() = %t", v, got)
		}
		if got := v.Str(); (got != "") != (k == KindString) {
			t.Errorf("%v.Str() = %q", v, got)
		}
		if got := v.Bytes(); (got != nil) != (k == KindBytes) {
			t.Errorf("%v.Bytes() = %v", v, got)
		}
	}
	if BytesVal(nil).Bytes() != nil || BytesVal([]byte{}).Bytes() == nil {
		t.Error("BytesVal does not keep nil and empty apart")
	}
	if c := BytesVal([]byte{1}); &c.Clone().Bytes()[0] == &c.Bytes()[0] {
		t.Error("Clone aliases the original buffer")
	}
}

func TestValueEqualNaN(t *testing.T) {
	if !Float(math.NaN()).Equal(Float(math.NaN())) {
		t.Fatal("NaN should compare equal to NaN for round-trip checking")
	}
}

func TestValueEqualCrossKind(t *testing.T) {
	if Int(0).Equal(Uint(0)) {
		t.Fatal("different kinds must not be equal")
	}
}

func TestStatusAndKindStrings(t *testing.T) {
	for _, s := range []Status{StatusOK, StatusAPIError, StatusDenied, StatusInternal,
		StatusDeadline, StatusCanceled, Status(99)} {
		if s.String() == "" {
			t.Errorf("empty Status string for %d", s)
		}
	}
	// Unknown statuses keep their numeric identity rather than collapsing.
	if Status(99).String() == Status(98).String() {
		t.Error("unknown statuses are indistinguishable")
	}
	for k := Kind(0); k < 12; k++ {
		if k.String() == "" {
			t.Errorf("empty Kind string for %d", k)
		}
	}
	for _, v := range sampleValues() {
		if v.String() == "" {
			t.Errorf("empty Value string for kind %v", v.Kind())
		}
	}
}

// randomValue builds an arbitrary Value for property tests.
func randomValue(r *rand.Rand) Value {
	switch r.Intn(9) {
	case 0:
		return Null()
	case 1:
		return Int(r.Int63() - r.Int63())
	case 2:
		return Uint(r.Uint64())
	case 3:
		return Float(r.NormFloat64())
	case 4:
		return Bool(r.Intn(2) == 0)
	case 5:
		return Str(strings.Repeat("x", r.Intn(64)))
	case 6:
		buf := make([]byte, r.Intn(256))
		r.Read(buf)
		return BytesVal(buf)
	case 7:
		return Len(r.Uint64())
	default:
		return HandleVal(Handle(r.Uint64()))
	}
}

func TestQuickCallRoundTrip(t *testing.T) {
	f := func(seq uint64, vm, fn uint32, flags uint16, pri uint8, deadline int64, stamps [4]int64, nargs uint8) bool {
		r := rand.New(rand.NewSource(int64(seq) ^ int64(fn)))
		c := &Call{
			Seq: seq, VM: vm, Func: fn, Flags: flags,
			Priority: pri, Deadline: deadline,
			Stamps: Stamps{Encode: stamps[0], Admit: stamps[1], Dispatch: stamps[2], Done: stamps[3]},
		}
		for i := 0; i < int(nargs%24); i++ {
			c.Args = append(c.Args, randomValue(r))
		}
		got, err := DecodeCall(EncodeCall(c))
		if err != nil {
			return false
		}
		if got.Seq != c.Seq || got.VM != c.VM || got.Func != c.Func || got.Flags != c.Flags {
			return false
		}
		if got.Priority != c.Priority || got.Deadline != c.Deadline || got.Stamps != c.Stamps {
			return false
		}
		if len(got.Args) != len(c.Args) {
			return false
		}
		for i := range c.Args {
			if !got.Args[i].Equal(c.Args[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestCallHeaderEdgeRoundTrip pins the corners of the extended header: zero
// and sentinel deadlines, max priority, and every replay/async/batched flag
// combination plus unknown future flag bits — all must round-trip exactly.
func TestCallHeaderEdgeRoundTrip(t *testing.T) {
	deadlines := []int64{0, 1, -1, math.MaxInt64, math.MinInt64}
	flagSets := []uint16{0, FlagAsync, FlagBatched, FlagReplay,
		FlagAsync | FlagBatched, FlagAsync | FlagReplay, FlagBatched | FlagReplay,
		FlagAsync | FlagBatched | FlagReplay,
		1 << 9, FlagsKnown | 1<<15} // unknown future bits must survive
	for _, d := range deadlines {
		for _, fl := range flagSets {
			for _, pri := range []uint8{0, 1, 200, math.MaxUint8} {
				c := &Call{Seq: 5, VM: 2, Func: 3, Flags: fl, Priority: pri, Deadline: d,
					Stamps: Stamps{Encode: 100, Admit: 200}}
				got, err := DecodeCall(EncodeCall(c))
				if err != nil {
					t.Fatalf("deadline=%d flags=%#x pri=%d: %v", d, fl, pri, err)
				}
				if got.Deadline != d || got.Flags != fl || got.Priority != pri || got.Stamps != c.Stamps {
					t.Fatalf("header dropped: got %+v want %+v", got, c)
				}
			}
		}
	}
}

func TestQuickReplyRoundTrip(t *testing.T) {
	f := func(seq uint64, status uint8, errmsg string, stamps [4]int64, nouts uint8) bool {
		r := rand.New(rand.NewSource(int64(seq)))
		// Full uint8 range: unknown future statuses must round-trip too.
		rep := &Reply{
			Seq: seq, Status: Status(status), Err: errmsg, Ret: randomValue(r),
			Stamps: Stamps{Encode: stamps[0], Admit: stamps[1], Dispatch: stamps[2], Done: stamps[3]},
		}
		for i := 0; i < int(nouts%16); i++ {
			rep.Outs = append(rep.Outs, randomValue(r))
		}
		got, err := DecodeReply(EncodeReply(rep))
		if err != nil {
			return false
		}
		if got.Seq != rep.Seq || got.Status != rep.Status || got.Err != rep.Err || got.Stamps != rep.Stamps {
			return false
		}
		if !got.Ret.Equal(rep.Ret) || len(got.Outs) != len(rep.Outs) {
			return false
		}
		for i := range rep.Outs {
			if !got.Outs[i].Equal(rep.Outs[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Fuzz-ish robustness: decoding arbitrary junk must never panic.
func TestQuickDecodeNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		DecodeCall(b)
		DecodeReply(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestStatusSentinels is the round-trip contract between the wire status
// space and the categorized averr taxonomy: every non-OK known status maps
// to exactly one categorized sentinel, and StatusFor maps that sentinel —
// bare or %w-wrapped — back to the same status. Unknown future statuses
// stay sentinel-free so they keep their numeric identity end to end.
func TestStatusSentinels(t *testing.T) {
	cases := []struct {
		status   Status
		sentinel error
		cat      averr.Category
		code     string
	}{
		{StatusAPIError, averr.ErrAPIFailure, averr.CatAPI, "api-failure"},
		{StatusDenied, averr.ErrDenied, averr.CatDenied, "denied"},
		{StatusInternal, averr.ErrInternal, averr.CatInternal, "internal"},
		{StatusDeadline, averr.ErrDeadlineExceeded, averr.CatDeadline, "deadline-exceeded"},
		{StatusCanceled, averr.ErrCanceled, averr.CatCanceled, "canceled"},
		{StatusOverload, averr.ErrOverloaded, averr.CatOverload, "overloaded"},
		{StatusRetryable, averr.ErrRetryable, averr.CatFailover, "retryable"},
	}
	seen := make(map[error]Status)
	for _, tc := range cases {
		s := tc.status.Sentinel()
		if !errors.Is(s, tc.sentinel) {
			t.Errorf("%v: Sentinel() = %v, want %v", tc.status, s, tc.sentinel)
			continue
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("%v and %v share sentinel %v", tc.status, prev, s)
		}
		seen[s] = tc.status
		if got := averr.CategoryOf(s); got != tc.cat {
			t.Errorf("%v: category = %q, want %q", tc.status, got, tc.cat)
		}
		if got := averr.CodeOf(s); got != tc.code {
			t.Errorf("%v: code = %q, want %q", tc.status, got, tc.code)
		}
		// Round trip: bare and wrapped sentinels map back to the status.
		if got := StatusFor(s); got != tc.status {
			t.Errorf("StatusFor(%v) = %v, want %v", s, got, tc.status)
		}
		wrapped := fmt.Errorf("router: vm 3: %w", s)
		if got := StatusFor(wrapped); got != tc.status {
			t.Errorf("StatusFor(wrapped %v) = %v, want %v", s, got, tc.status)
		}
		if got := averr.CategoryOf(wrapped); got != tc.cat {
			t.Errorf("wrapped %v: category = %q, want %q", s, got, tc.cat)
		}
	}
	// Statuses with no sentinel of their own.
	if StatusOK.Sentinel() != nil {
		t.Error("StatusOK unexpectedly maps to a sentinel")
	}
	if StatusFor(nil) != StatusOK {
		t.Error("StatusFor(nil) != StatusOK")
	}
	for _, s := range []Status{Status(100), Status(200)} {
		if s.Sentinel() != nil {
			t.Errorf("%v unexpectedly maps to a sentinel", s)
		}
	}
	// Sentinels without a wire status of their own collapse to the
	// denial status (the call as posed was rejected, not mis-executed).
	for _, e := range []error{averr.ErrBadArg, averr.ErrProtocol, averr.ErrUnknownVM} {
		if got := StatusFor(e); got != StatusDenied {
			t.Errorf("StatusFor(%v) = %v, want %v", e, got, StatusDenied)
		}
	}
	// Errors outside the taxonomy are internal by definition.
	if got := StatusFor(errors.New("boom")); got != StatusInternal {
		t.Errorf("StatusFor(unknown) = %v, want %v", got, StatusInternal)
	}
}

func TestPatchCallAdmit(t *testing.T) {
	c := &Call{Seq: 9, VM: 1, Func: 4, Flags: FlagReplay | 1<<12, Priority: 7,
		Deadline: 1000, Stamps: Stamps{Encode: 11}, Args: []Value{Int(3), Str("x")}}
	frame := EncodeCall(c)
	PatchCallAdmit(frame, 42, 2000, 1500)
	got, err := DecodeCall(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got.VM != 42 || got.Deadline != 2000 || got.Stamps.Admit != 1500 {
		t.Fatalf("patch not applied: %+v", got)
	}
	// Everything else is untouched.
	if got.Seq != c.Seq || got.Func != c.Func || got.Flags != c.Flags ||
		got.Priority != c.Priority || got.Stamps.Encode != 11 || len(got.Args) != 2 {
		t.Fatalf("patch disturbed unrelated fields: %+v", got)
	}
}

func TestAppendCallReusesBuffer(t *testing.T) {
	buf := make([]byte, 0, 256)
	c := &Call{Seq: 7, Args: []Value{Int(1)}}
	out := AppendCall(buf, c)
	if &out[0] != &buf[:1][0] {
		t.Fatal("AppendCall reallocated despite sufficient capacity")
	}
}

func BenchmarkEncodeCallSmall(b *testing.B) {
	c := &Call{Seq: 1, Func: 12, Args: []Value{HandleVal(3), Uint(0), Uint(8), BytesVal(make([]byte, 8))}}
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendCall(buf[:0], c)
	}
}

func BenchmarkDecodeCallSmall(b *testing.B) {
	c := &Call{Seq: 1, Func: 12, Args: []Value{HandleVal(3), Uint(0), Uint(8), BytesVal(make([]byte, 8))}}
	frame := EncodeCall(c)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeCall(frame); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeCall4KBuffer(b *testing.B) {
	c := &Call{Seq: 1, Func: 12, Args: []Value{HandleVal(3), BytesVal(make([]byte, 4096))}}
	buf := make([]byte, 0, 8192)
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		buf = AppendCall(buf[:0], c)
	}
}
