package obs

import (
	"fmt"
	"testing"
)

// TestReqIDIsPrintf016x pins the spelling every log line, span and event
// shares: the hand-rolled rendering must stay what %016x prints.
func TestReqIDIsPrintf016x(t *testing.T) {
	for _, id := range []uint64{0, 1, 0xabc, 0xFEED, 1 << 63, ^uint64(0), 0x0123456789abcdef} {
		if got, want := ReqID(id), fmt.Sprintf("%016x", id); got != want {
			t.Errorf("ReqID(%#x) = %q, want %q", id, got, want)
		}
	}
}

// TestNopLoggerIsShared: the discard logger is one value, not one handler
// per call.
func TestNopLoggerIsShared(t *testing.T) {
	if NopLogger() != NopLogger() {
		t.Error("NopLogger built a new logger")
	}
}
