package experiments

import (
	"bytes"
	"context"
	"testing"
)

// TestExperimentReportsAreScheduleIndependent runs the cheap concurrent
// experiments twice end to end and requires byte-identical reports: the
// worker pools inside fig9 (parallel shapes), multiradar (parallel radar
// chains), and the frame synthesizer must not leak scheduling order into
// any output.
func TestExperimentReportsAreScheduleIndependent(t *testing.T) {
	for _, name := range []string{"fig9", "fig14", "multiradar"} {
		var a, b bytes.Buffer
		if err := RunCtx(context.Background(), name, Quick(), 1, &a); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := RunCtx(context.Background(), name, Quick(), 1, &b); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a.String() != b.String() {
			t.Fatalf("%s report differs between runs:\n--- first\n%s\n--- second\n%s", name, a.String(), b.String())
		}
	}
}
