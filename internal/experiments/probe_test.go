package experiments

import (
	"context"
	"testing"
)

func TestProbeDistinguishesDefenses(t *testing.T) {
	r, err := ProbeCtx(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !r.SpooferGhostSeen {
		t.Fatal("replay spoofer failed to spoof while radar on")
	}
	if !r.TagGhostSeen {
		t.Fatal("RF-Protect failed to spoof while radar on")
	}
	if !r.SpooferDetected {
		t.Fatal("probe missed the active replay spoofer")
	}
	if r.TagDetected {
		t.Fatal("probe falsely detected the passive RF-Protect tag")
	}
	if r.SpooferPeakPower <= r.TagPeakPower {
		t.Fatal("spoofer emissions should dominate the tag's silence")
	}
}
