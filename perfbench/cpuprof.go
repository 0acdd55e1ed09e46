package main

import (
	"bufio"
	"fmt"
	"io"
	"os/exec"
	"strings"
	"time"
)

// stackSample is one distinct stack of a CPU profile: its sampled time and
// its frames, leaf first.
type stackSample struct {
	value  time.Duration
	frames []string
}

// readTraces runs `go tool pprof -traces` on a CPU profile.
func readTraces(profile string) ([]stackSample, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", profile)
	out, err := cmd.Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return nil, fmt.Errorf("go tool pprof -traces: %v: %s", err, ee.Stderr)
		}
		return nil, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	return parseTraces(strings.NewReader(string(out)))
}

// parseTraces reads the -traces text format: a header, then one block
// per stack, each opened by a "-----------+---..." rule. A block's first
// line is the sampled time and the leaf frame; every further line is one
// caller frame.
func parseTraces(r io.Reader) ([]stackSample, error) {
	var out []stackSample
	var cur *stackSample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			if cur != nil && len(cur.frames) > 0 {
				out = append(out, *cur)
			}
			cur = &stackSample{}
			continue
		}
		if cur == nil || strings.TrimSpace(line) == "" {
			continue // header, or blank lines
		}
		fields := strings.Fields(line)
		if len(cur.frames) == 0 {
			if len(fields) < 2 {
				return nil, fmt.Errorf("pprof traces: stack opens without a value: %q", line)
			}
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof traces: sample value %q: %w", fields[0], err)
			}
			cur.value = d
			cur.frames = append(cur.frames, fields[1])
			continue
		}
		cur.frames = append(cur.frames, fields[0])
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if cur != nil && len(cur.frames) > 0 {
		out = append(out, *cur)
	}
	return out, nil
}

// cpuShares folds stacks into bucket shares of the total sampled time.
func cpuShares(stacks []stackSample) (map[string]float64, time.Duration) {
	byBucket := map[string]time.Duration{}
	var total time.Duration
	for _, s := range stacks {
		byBucket[classify(s.frames)] += s.value
		total += s.value
	}
	shares := make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		shares[b.name] = ratio(float64(byBucket[b.name]), float64(total))
	}
	return shares, total
}

const repoInternal = "github.com/spechpc/spechpc-sim/internal/"

// classify attributes one stack (leaf first) to a bucket. The leaf frame
// decides when it belongs to a bucket; a stdlib frame that belongs to
// none (memmove, reflect, strconv, a syscall, ...) hands the sample to
// the next frame up that does — the innermost repository frame, unless a
// named runtime, JSON or network frame sits in between.
func classify(frames []string) string {
	for _, fn := range frames {
		if b := frameBucket(fn); b != "" {
			return b
		}
	}
	return "other"
}

// frameBucket is the bucket one frame names, or "" if it names none.
func frameBucket(fn string) string {
	switch {
	case strings.HasPrefix(fn, repoInternal):
		return repoBucket(strings.TrimPrefix(fn, repoInternal))
	case strings.HasPrefix(fn, "encoding/json."):
		return "json"
	case strings.HasPrefix(fn, "net.") || strings.HasPrefix(fn, "net/"):
		return "net_io"
	case strings.HasPrefix(fn, "runtime."):
		return runtimeBucket(strings.TrimPrefix(fn, "runtime."))
	case strings.HasPrefix(fn, "sync.(*Mutex)"), strings.HasPrefix(fn, "sync.(*RWMutex)"),
		strings.HasPrefix(fn, "sync.(*WaitGroup)"), strings.HasPrefix(fn, "sync.(*Cond)"),
		strings.HasPrefix(fn, "sync.runtime_"):
		return "runtime_sched"
	}
	return ""
}

// repoBucket maps a frame of the repository's internal packages, given
// as "<package path>.<symbol>", to its bucket.
func repoBucket(rest string) string {
	pkg, sym := rest, ""
	if i := strings.IndexByte(rest, '.'); i >= 0 {
		pkg, sym = rest[:i], rest[i+1:]
	}
	switch {
	case pkg == "sim":
		return simBucket(sym)
	case pkg == "sim/psim":
		return "psim"
	case pkg == "mpi":
		return "mpi"
	case pkg == "netsim":
		return "netsim"
	case pkg == "machine", pkg == "dvfs", pkg == "units":
		return "machine"
	case strings.HasPrefix(pkg, "benchmarks/"):
		return "kernels"
	case pkg == "spec", pkg == "trace":
		return "spec_trace"
	case pkg == "campaign":
		return "campaign"
	case pkg == "surrogate", strings.HasPrefix(pkg, "surrogate/"):
		return "surrogate"
	case pkg == "scenario", pkg == "figures", pkg == "report", pkg == "analysis":
		return "scenario_render"
	case pkg == "service", pkg == "fleet", strings.HasPrefix(pkg, "fleet/"):
		return "service"
	}
	return ""
}

// eventqSyms are the sim.Env methods that maintain the event heap and the
// now-queue.
var eventqSyms = map[string]bool{
	"heapPush": true, "heapPopMin": true, "heapRemove": true, "heapFix": true,
	"siftUp": true, "siftDown": true, "entryLess": true, "allocSlot": true,
	"releaseSlot": true, "schedule": true, "scheduleArg": true, "scheduleProc": true,
	"peekNext": true, "dispatch": true, "At": true, "After": true, "AtArg": true,
	"AfterArg": true, "NextEventTime": true, "Cancel": true, "Cancelled": true,
	"valid": true, "Time": true,
}

// simBucket splits the sim package: processor-sharing resources and their
// flows (including flow event re-timing), the event queue, and the rest
// (processes, coroutine hand-off, the run loop).
func simBucket(sym string) string {
	if strings.Contains(sym, "PSResource") || strings.Contains(sym, "Flow") {
		return "sim.psresource"
	}
	name := sym
	if i := strings.LastIndexAny(name, ")."); i >= 0 {
		name = name[i+1:]
	}
	if eventqSyms[name] || strings.HasPrefix(sym, "Event.") {
		return "sim.eventq"
	}
	return "sim.other"
}

// schedSyms are runtime functions that park, wake, switch or block
// goroutines: scheduling, channels, futexes, semaphores.
var schedSyms = map[string]bool{
	"gopark": true, "goparkunlock": true, "park_m": true, "schedule": true,
	"findRunnable": true, "findrunnable": true, "execute": true, "gogo": true,
	"mcall": true, "gosched_m": true, "goschedImpl": true, "goschedguarded": true,
	"gopreempt_m": true, "chanrecv": true, "chanrecv1": true, "chanrecv2": true,
	"chansend": true, "chansend1": true, "send": true, "recv": true,
	"closechan": true, "selectgo": true, "selectnbrecv": true, "selectnbsend": true,
	"block": true, "futex": true, "futexsleep": true, "futexwakeup": true,
	"notesleep": true, "notewakeup": true, "notetsleep": true, "notetsleepg": true,
	"notetsleep_internal": true, "semasleep": true, "semawakeup": true,
	"semacquire": true, "semacquire1": true, "semrelease": true, "semrelease1": true,
	"lock": true, "lock2": true, "unlock": true, "unlock2": true,
	"lockWithRank": true, "unlockWithRank": true, "ready": true, "goready": true,
	"wakep": true, "startm": true, "stopm": true, "handoffp": true,
	"runqput": true, "runqget": true, "runqgrab": true, "runqsteal": true,
	"stealWork": true, "checkTimers": true, "runtimer": true, "resetspinning": true,
	"usleep": true, "osyield": true, "procyield": true, "casgstatus": true,
	"netpollblock": true, "netpoll": true, "mPark": true, "acquirep": true,
	"releasep": true, "entersyscall": true, "exitsyscall": true,
	"exitsyscallfast": true, "reentersyscall": true, "entersyscallblock": true,
	"newproc": true, "newproc1": true, "gfget": true, "gfput": true,
	"goexit0": true, "goexit1": true, "mstart1": true, "mexit": true,
	"sysmon": true, "retake": true, "preemptone": true, "preemptM": true,
	"signalM": true, "tgkill": true, "wakeNetPoller": true, "injectglist": true,
	"globrunqget": true, "coroswitch": true, "coroswitch_m": true,
	"corostart": true, "coroexit": true, "sync_runtime_Semacquire": true,
	"sync_runtime_SemacquireMutex": true, "sync_runtime_Semrelease": true,
	"sync_runtime_canSpin": true, "sync_runtime_doSpin": true,
}

// gcAllocPrefixes name the runtime's allocator, garbage collector,
// sweeper, scavenger and write barriers.
var gcAllocPrefixes = []string{
	"mallocgc", "newobject", "newarray", "makeslice", "growslice", "makemap",
	"(*mcache)", "(*mcentral)", "(*mheap)", "(*mspan)", "(*gcWork)",
	"(*gcControllerState)", "(*gcCPULimiterState)", "gc", "scan", "markroot",
	"(*gcBits)", "(*pageAlloc)", "(*scavengerState)", "(*sweepLocked)",
	"(*activeSweep)", "sweepone", "bgsweep", "bgscavenge", "wbBuf", "(*wbBuf)",
	"bulkBarrier", "greyobject", "findObject", "heapBits", "heapSetType",
	"nextFreeFast", "deductAssistCredit", "spanOf", "sysAlloc", "sysUsed",
	"sysUnused", "sysMap", "profilealloc", "mProf_Malloc", "(*markBits)",
	"markBits", "typePointers", "(*typePointers)", "publicationBarrier",
	"freeSomeWbufs", "getempty", "putfull", "trygetfull", "(*lfstack)",
	"finishsweep_m", "(*consistentHeapStats)", "(*mSpanStateBox)", "(*fixalloc)",
	"persistentalloc", "memclrNoHeapPointersChunked",
}

// runtimeBucket maps a runtime function to runtime_sched or
// runtime_gc_alloc, or "" for the rest (memmove, hashing, map access,
// stack walking, ...), which the caller's frame decides.
func runtimeBucket(name string) string {
	if schedSyms[name] {
		return "runtime_sched"
	}
	for _, p := range gcAllocPrefixes {
		if strings.HasPrefix(name, p) {
			return "runtime_gc_alloc"
		}
	}
	return ""
}
