package coord

import (
	"testing"

	"sprintgame/internal/persist"
)

// TestRecordCapMirrorsWireCap pins the documented invariant that the
// persist record cap mirrors the wire protocol's frame guard, so one
// size limit bounds a message whether it arrives on the wire or from
// disk. The persist docs claimed 1 MiB while the constant said 16 MiB;
// this keeps the two from drifting apart again.
func TestRecordCapMirrorsWireCap(t *testing.T) {
	if maxFramePayload != persist.MaxRecordPayload {
		t.Errorf("coord maxFramePayload = %d, persist.MaxRecordPayload = %d; the caps must agree",
			maxFramePayload, persist.MaxRecordPayload)
	}
	if maxRequestLine != persist.MaxRecordPayload {
		t.Errorf("coord maxRequestLine = %d, persist.MaxRecordPayload = %d; the caps must agree",
			maxRequestLine, persist.MaxRecordPayload)
	}
}
