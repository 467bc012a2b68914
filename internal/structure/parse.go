package structure

import (
	"fmt"
	"strconv"
	"strings"
)

// Textual range syntax, shared by the CLIs (sassample -query) and the
// sasserve HTTP API: an interval is "lo:hi" (inclusive ends) and a box is
// one interval per axis joined by commas, e.g. "0:1023,512:767".

// ParseInterval parses "lo:hi" into an inclusive Interval.
func ParseInterval(s string) (Interval, error) {
	lo, hi, ok := strings.Cut(s, ":")
	if !ok {
		return Interval{}, fmt.Errorf("structure: interval %q is not lo:hi", s)
	}
	l, err := strconv.ParseUint(strings.TrimSpace(lo), 10, 64)
	if err != nil {
		return Interval{}, fmt.Errorf("structure: interval %q: bad lo: %v", s, err)
	}
	h, err := strconv.ParseUint(strings.TrimSpace(hi), 10, 64)
	if err != nil {
		return Interval{}, fmt.Errorf("structure: interval %q: bad hi: %v", s, err)
	}
	if l > h {
		return Interval{}, fmt.Errorf("structure: interval %q is empty (lo > hi)", s)
	}
	return Interval{Lo: l, Hi: h}, nil
}

// ParseRange parses a comma-separated list of "lo:hi" intervals into a box,
// one interval per axis: "0:1023,512:767" is the 2-D box
// [0,1023]×[512,767].
func ParseRange(s string) (Range, error) {
	parts := strings.Split(s, ",")
	r := make(Range, 0, len(parts))
	for _, part := range parts {
		iv, err := ParseInterval(part)
		if err != nil {
			return nil, err
		}
		r = append(r, iv)
	}
	return r, nil
}

// String renders the interval in the parseable "lo:hi" form.
func (iv Interval) String() string {
	return strconv.FormatUint(iv.Lo, 10) + ":" + strconv.FormatUint(iv.Hi, 10)
}

// String renders the box in the parseable comma-joined form.
func (r Range) String() string {
	parts := make([]string, len(r))
	for d, iv := range r {
		parts[d] = iv.String()
	}
	return strings.Join(parts, ",")
}

// ParseAxisSpec parses a textual key-domain description into axes: a
// comma-separated list of "kind:bits" terms, e.g. "bittrie:32,bittrie:32"
// for a 2-D domain of 32-bit binary hierarchies or "ordered:20" for one
// linear 20-bit axis. This is how live summaries declare their domain on
// the sasserve command line (a domain that, unlike a served file's, has no
// serialized axis metadata to read). Explicit hierarchies have no textual
// form — they need a whole tree — and are rejected with a hint, as is a
// domain of more than MaxAxes axes.
func ParseAxisSpec(s string) ([]Axis, error) {
	parts := strings.Split(s, ",")
	if len(parts) > MaxAxes {
		return nil, fmt.Errorf("structure: %d axes exceed the limit of %d", len(parts), MaxAxes)
	}
	axes := make([]Axis, 0, len(parts))
	for _, part := range parts {
		kind, bits, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("structure: axis %q is not kind:bits (e.g. bittrie:32)", part)
		}
		b, err := strconv.Atoi(strings.TrimSpace(bits))
		if err != nil {
			return nil, fmt.Errorf("structure: axis %q: bad bit width: %v", part, err)
		}
		var ax Axis
		switch kind {
		case "bittrie":
			ax = BitTrieAxis(b)
		case "ordered":
			ax = OrderedAxis(b)
		case "explicit":
			return nil, fmt.Errorf("structure: explicit hierarchies have no textual axis form; serve a serialized summary instead")
		default:
			return nil, fmt.Errorf("structure: unknown axis kind %q (want bittrie or ordered)", kind)
		}
		if err := ax.Validate(); err != nil {
			return nil, err
		}
		axes = append(axes, ax)
	}
	return axes, nil
}

// Check validates the box against an axis description: one interval per
// axis, each non-empty and inside the axis domain. Serving layers call this
// before querying so malformed client input fails loudly instead of
// silently selecting nothing.
func (r Range) Check(axes []Axis) error {
	if len(r) != len(axes) {
		return fmt.Errorf("structure: range has %d intervals for %d axes", len(r), len(axes))
	}
	for d, iv := range r {
		if iv.Lo > iv.Hi {
			return fmt.Errorf("structure: axis %d interval %s is empty (lo > hi)", d, iv)
		}
		if dom := axes[d].DomainSize(); iv.Hi >= dom {
			return fmt.Errorf("structure: axis %d interval %s exceeds domain [0,%d]", d, iv, dom-1)
		}
	}
	return nil
}
