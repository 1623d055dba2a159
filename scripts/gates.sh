#!/bin/sh
# The repository's "there is one of these" gates, as a table: each row names
# a pattern that may appear only in the places allowed to own it. `make
# check` runs them all (`sh scripts/gates.sh`); `sh scripts/gates.sh stub
# wire` (or `make stub-gate wire-gate`) runs the named ones. A new gate is a
# new row.
#
#   gate NAME MESSAGE PATTERN ALLOWED LISTER...
#
# LISTER is a command printing candidate lines; a line that matches the ERE
# PATTERN and not the ERE ALLOWED ('^$': nothing is allowed) fails the gate
# with MESSAGE. `golines [-t] PATH...` lists every line of Go source under the
# paths (directories or files) as path:line:text, tests included only with -t.
GO=${GO:-go}
cd "$(dirname "$0")/.." || exit 1
want=" $* "
status=0

gate() {
	name=$1 message=$2 pattern=$3 allowed=$4
	shift 4
	case "$want" in "  " | *" $name "*) ;; *) return ;; esac
	out=$("$@" | grep -E -e "$pattern" | grep -vE -e "$allowed")
	if [ -n "$out" ]; then
		echo "$name-gate: $message:"
		echo "$out"
		status=1
	fi
}

# attach_pairs lists every s.pair() in ava.go's AttachVM after the first.
attach_pairs() {
	awk '/^func \(s \*Stack\) AttachVM\(/ { inside = 1 }
		inside && /s\.pair\(\)/ && n++ { print FILENAME ":" FNR ":" $0 }
		inside && /^}/ { inside = 0 }' ava.go
}

golines() {
	tests="--exclude=*_test.go"
	if [ "$1" = -t ]; then
		tests=
		shift
	fi
	grep -rnH --include='*.go' $tests --exclude-dir=.bench_build '' "$@"
}

# One rebind: a handle table is rebuilt under guest-held values only by
# server.Context.Rebind, whose one caller is the FuncRebind control call —
# failover replay and the guardian's post-watermark rebind both send it —
# so nobody re-grows a private (and soon drifting) copy.
gate rebind 'Handles.InsertAt outside internal/server (use Context.Rebind)' \
	'Handles\.InsertAt\(' '^\./internal/server/' golines .

# One recovery target: the guardian checkpoints, replays, rebinds and
# restores every API server — in its own process or on another host — over
# the link it dialed, so capture, restore and rebind reach server.Context
# only through executeControl's control calls. Outside internal/server the
# only calls by those names are the replay engine's and the guardian's on
# a migrate.Target (receiver t). The in-process target and the link type
# that carried a server beside its endpoint are gone for good.
gate target 'server.Context capture/restore/rebind called outside internal/server (send the control call over the link)' \
	'\.(SnapshotObjects|RestoreObject|Rebind)\(' \
	'^\./internal/server/|^\./internal/(migrate/migrate|failover/guardian)\.go:[0-9]+:.*[^A-Za-z0-9_.]t\.(Rebind|RestoreObject)\(' \
	golines .
gate target 'in-process recovery target or server link type named (every server is reached by its endpoint)' \
	'\b(LocalTarget|ServerLink)\b' '^$' golines -t .

# One state machine: a Guardian's state, epoch, link (and its generation),
# checkpoint watermark and abort channel are assigned only by the transition
# functions in internal/failover/state.go — tests included — so the lifecycle
# cannot quietly grow a second writer.
gate state 'Guardian lifecycle field assigned outside internal/failover/state.go' \
	'\bg\.(state|epoch|link|linkGen|ckptW|abort)(, *[A-Za-z_.]+)* *(=[^=]|:=|\+\+|--|[-+]=)' \
	'^internal/failover/state\.go:' golines -t internal/failover

# One decoder per frame kind on every serve path: the allocating
# marshal.DecodeCall/DecodeBatch/DecodeReply wrappers are for tests and the
# benchmark's trace; production code decodes into a record it owns with the
# *Into forms.
gate decode 'allocating decoder outside internal/marshal (use the *Into form)' \
	'marshal\.Decode(Call|Batch|Reply)\(' '^\./(internal/marshal|benchmark)/' golines .

# One assembler: a router, a guardian and a registry dialer are wired
# together only by ava.Stack (ava.go), which knows all three south hops — own
# server, server at an address, server out of a fleet registry. Experiments,
# examples and tests pick a hop with an option; nothing outside ava.go, the
# two packages themselves and benchmark/ builds one by hand.
gate wire 'hand-wired router/guardian/dialer outside ava.go (use ava.NewStack with WithRemoteServer / WithPlacement)' \
	'hv\.NewRouter\(|failover\.New\(|failover\.NewFleetDialer\(' \
	'^\./(ava\.go:|internal/hv/|internal/failover/|benchmark/)' golines -t .

# One interposition hop: the guardian is the router's south endpoint
# (Guardian.Endpoint), so a guarded VM's frame goes router → guardian →
# server link with no pair, and no pump goroutines, in between. failover.New
# takes no endpoint to pump from, and AttachVM builds one pair, guest ↔
# router.
gate hop 'failover.New takes an endpoint (the guardian is the router'"'"'s south endpoint: hand Router.Attach g.Endpoint())' \
	'func New\(.*\b[a-z][A-Za-z0-9_]* transport\.Endpoint\b' '^$' golines internal/failover
gate hop 'AttachVM builds a second pair (guest ↔ router is the only one; the guardian is the router'"'"'s south endpoint)' \
	'.' '^$' attach_pairs

# One-way layering: the guest library is the part of the stack that runs
# inside the VM (PAPER.md §3), so it links the wire (marshal, transport), the
# spec and their leaves — never the API server, the hypervisor, the recovery
# layer or anything fleet-side.
gate layer 'internal/guest links host-side packages' \
	'^ava/internal/(server|failover|hv|host|fleet|migrate|sched|ctlplane)$' '^$' \
	"$GO" list -deps ./internal/guest

# One binding layer, both halves generated: an API package's guest stubs and
# API server are what cava emits from its specification (stubs_gen.go;
# internal/gen/toydev is a whole generated package). The by-name, `...any`
# front (Lib.Call / CallWith) is for tests, examples and one-off calls, and a
# dispatch handler is registered by the generated Register only — the
# hand-written part is the silo-facing Implementation, which never sees the
# registry.
gate stub 'by-name Lib.Call/CallWith in an API package (add the function to the spec and run make gen)' \
	'\.(Call|CallWith)\(' '^$' golines internal/cl internal/mvnc internal/qat internal/gen
gate stub 'hand-written dispatch handler in an API package (declare the function in the spec; make gen emits its handler)' \
	'MustRegister\("|server\.Invocation' '^([^:]*_gen\.go|internal/gen/toydev/toydev\.go):' \
	golines internal/cl internal/mvnc internal/qat internal/gen

# One guest facade, generated: the Client an application calls — natively on
# the silo, remoted through the stubs — is emitted by cava beside the stubs
# for every API whose functions all return a status, so no API package
# hand-writes a native or remote client beside them. internal/cl's facade
# is the one left: OpenCL's creates return handles.
gate client 'hand-written guest client in an API package (make gen emits NativeClient and RemoteClient from the spec)' \
	'type (NativeClient|RemoteClient)\b|func \([a-z]+ \*(NativeClient|RemoteClient)\)|func New(Native|Remote)\(' \
	'^([^:]*_gen\.go|internal/gen/toydev/toydev\.go):' golines internal/qat internal/mvnc internal/gen

# One owner of object state: how an API's objects are captured and restored
# is its binding's business — BindServer puts the package's MigrationAdapter
# on the registry and server.Context reads it from there. No daemon,
# experiment or example hands one in (the way `avad -api mvnc` once forgot
# to). QAT declares no object state, so it has no adapter at all. ava.go's
# single line is FailoverConfig.Adapter's fallback, which goes with the field
# once benchmark/ may stop setting it.
gate adapter 'object-state adapter set by hand outside the API bindings (BindServer installs it on the registry)' \
	'\.Adapter *=[^=]|MigrationAdapter\{' \
	'^\./(internal/(cl|mvnc|server)/|benchmark/|ava\.go:[0-9]+:[[:space:]]*reg\.Adapter = fc\.Adapter( |$))' golines .

# The silo is the Implementation: an API package's generated Register is
# handed its silo itself, and a method named after a spec function (ClFinish,
# MvncOpenDevice, QatHash) is the silo's, written once in the spec's shape —
# no shim type converting statuses and dropping size arguments in between.
gate binding 'generated Register handed something other than the silo (make *Silo the Implementation)' \
	'(^|[^[:alnum:]_.])Register\([^,()]+,' '^[^:]*_gen\.go:|(^|[^[:alnum:]_.])Register\([[:alnum:]_]+, silo\)' \
	golines -t internal/cl internal/mvnc internal/qat
gate binding 'spec function implemented on a type other than *Silo (reshape the silo method instead)' \
	':func \([^)]+\) (Cl|Mvnc|Qat)[A-Z]' '^[^:]*_gen\.go:|:func \(([[:alnum:]_]+ )?\*Silo\) ' \
	golines -t internal/cl internal/mvnc internal/qat

# One release: what an ended server incarnation still holds goes back to the
# silo through the registry's release, which the generated Register (emitted
# by internal/cava) installs
# from the specification's destructors (track(destroy), deallocates) and
# which only server.Context calls, when ServeVM returns or DropContext ends
# a context never served. Nobody else installs one, and no API package
# hand-writes a destructor switch — a function over a server context and a
# bare object, the release's shape.
gate release 'registry release installed outside the generated Register (declare the destructor in the spec; make gen emits the release)' \
	'\.SetRelease\(' '^\./internal/(server/|cava/gen\.go:|[a-z]+/[a-z_]*_gen\.go:|gen/toydev/toydev\.go:)' golines .
gate release 'hand-written destructor switch in an API package (declare track(destroy) or deallocates in the spec; make gen emits the release)' \
	'server\.Context, *[A-Za-z_]+ any\)' '^internal/([a-z]+/[a-z_]*_gen\.go|gen/toydev/toydev\.go):' \
	golines internal/cl internal/mvnc internal/qat internal/gen

# One source of payload buffers: on the forwarding path a buffer the size of
# a payload — an out buffer lent to a handler, a frame, a receive buffer —
# comes from internal/framebuf and goes back to it, so a bulk transfer does
# not cost its own size in garbage per call. The two allocations allowed are
# not per call or not payload: a ring's backing store, made once per
# endpoint, and the control envelope of a hello or a mirror op.
gate payload 'make([]byte on the forwarding path (draw the buffer from framebuf.Get / GetLen and Put it back)' \
	'make\(\[\]byte' \
	'^internal/transport/(transport\.go:[0-9]+:[[:space:]]*r := &ring\{buf: make\(\[\]byte, capacity\)\}|ctl\.go:)' \
	golines internal/server internal/guest internal/hv internal/transport

# One record log: the §4.3 log of tracked calls is the failover guardian's
# shadow log (internal/failover), replayed by internal/migrate, so no other
# layer builds a RecordedCall, and a log or checkpoint travels only on the
# wire codecs (internal/marshal), never in a second format such as gob.
gate record 'record-log entry built outside internal/failover and internal/migrate (the guardian shadow log is the one record log)' \
	'RecordedCall\{' '^\./internal/(failover|migrate)/' golines .
gate record 'encoding/gob imported (the record log travels on the wire codecs only)' \
	'"encoding/gob"' '^$' golines -t .

# One retained copy per call on the recovery-armed path: the guest's
# failover window copies each call's body once, into a pooled chunk
# (window.add), and the guardian's shadow log cuts what it records from its
# own slabs (shadowLog.record). A fresh per-call copy in the guest, or the
# admission path cloning into fresh memory again, is the second copy back.
gate retain 'per-call body copy in internal/guest (retain into the window chunks: window.add)' \
	'append\(\[\]byte\(nil\)' '^$' golines internal/guest
gate retain 'CloneValues in the guardian (admit records through shadowLog.record)' \
	'CloneValues\(' '^$' golines internal/failover/guardian.go


# One unsafe importer: the wire Value's pointer word (a string and a []byte
# share it) is the only place the stack reaches under Go's memory safety, so
# no other package — tests included — imports package unsafe.
gate unsafe '"unsafe" imported outside internal/marshal' \
	'"unsafe"' '^\./internal/marshal/' golines -t .

exit $status
