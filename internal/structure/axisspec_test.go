package structure

import (
	"strings"
	"testing"
)

func TestParseAxisSpec(t *testing.T) {
	axes, err := ParseAxisSpec("bittrie:32, ordered:20,bittrie:1")
	if err != nil {
		t.Fatal(err)
	}
	want := []Axis{BitTrieAxis(32), OrderedAxis(20), BitTrieAxis(1)}
	if len(axes) != len(want) {
		t.Fatalf("%d axes, want %d", len(axes), len(want))
	}
	for d := range want {
		if axes[d].Kind != want[d].Kind || axes[d].Bits != want[d].Bits {
			t.Fatalf("axis %d: %+v, want %+v", d, axes[d], want[d])
		}
	}
	widest := strings.TrimSuffix(strings.Repeat("ordered:4,", MaxAxes), ",")
	if axes, err := ParseAxisSpec(widest); err != nil || len(axes) != MaxAxes {
		t.Fatalf("ParseAxisSpec of %d axes = %d axes, %v", MaxAxes, len(axes), err)
	}

	for spec, wantErr := range map[string]string{
		"":              "kind:bits",
		"bittrie":       "kind:bits",
		"bittrie:x":     "bad bit width",
		"bittrie:0":     "out of [1,63]",
		"ordered:64":    "out of [1,63]",
		"explicit:8":    "no textual axis form",
		"quadtree:8":    "unknown axis kind",
		"bittrie:32,,":  "kind:bits",
		"bittrie:32:16": "bad bit width",
		strings.Repeat("bittrie:8,", MaxAxes) + "bittrie:8": "17 axes exceed the limit of 16",
	} {
		_, err := ParseAxisSpec(spec)
		if err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Fatalf("ParseAxisSpec(%q) = %v, want error containing %q", spec, err, wantErr)
		}
	}
}
