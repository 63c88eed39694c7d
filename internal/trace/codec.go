package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/grid"
)

// The on-disk trace format is a line-oriented text format:
//
//	pimtrace v1
//	grid <width> <height>
//	data <numData>
//	window
//	ref <proc> <data> <volume>
//	...
//
// Blank lines and lines starting with '#' are ignored. Every "window"
// line opens a new execution window; "ref" lines belong to the most
// recently opened window.

const formatHeader = "pimtrace v1"

// Encode writes the trace in the text format described above.
func Encode(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, formatHeader)
	fmt.Fprintf(bw, "grid %d %d\n", t.Grid.Width(), t.Grid.Height())
	fmt.Fprintf(bw, "data %d\n", t.NumData)
	for wi := range t.Windows {
		fmt.Fprintln(bw, "window")
		for _, r := range t.Windows[wi].Refs {
			fmt.Fprintf(bw, "ref %d %d %d\n", r.Proc, r.Data, r.Volume)
		}
	}
	return bw.Flush()
}

// Decode parses a trace from the text format and validates it.
func Decode(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	// No initial buffer: the scanner starts at 4 KiB and grows only for
	// longer lines, up to the 16 MiB line cap.
	sc.Buffer(nil, 16<<20)

	line, lineNo, err := nextLine(sc, 0)
	if err == io.EOF {
		return nil, fmt.Errorf("trace: empty input, want %q header", formatHeader)
	}
	if err != nil {
		return nil, err
	}
	if line != formatHeader {
		return nil, fmt.Errorf("trace: line %d: bad header %q, want %q", lineNo, line, formatHeader)
	}

	var t *Trace
	var g grid.Grid
	haveGrid, haveData := false, false
	numData := 0
	var cur *Window

	for {
		line, lineNo, err = nextLine(sc, lineNo)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "grid":
			if haveGrid {
				return nil, fmt.Errorf("trace: line %d: duplicate grid directive", lineNo)
			}
			w, h, err := twoInts(fields[1:])
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: grid: %v", lineNo, err)
			}
			if w <= 0 || h <= 0 {
				return nil, fmt.Errorf("trace: line %d: invalid grid %dx%d", lineNo, w, h)
			}
			g = grid.New(w, h)
			haveGrid = true
		case "data":
			if haveData {
				return nil, fmt.Errorf("trace: line %d: duplicate data directive", lineNo)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("trace: line %d: data takes one argument", lineNo)
			}
			numData, err = strconv.Atoi(fields[1])
			if err != nil || numData < 0 {
				return nil, fmt.Errorf("trace: line %d: bad data count %q", lineNo, fields[1])
			}
			haveData = true
		case "window":
			if !haveGrid || !haveData {
				return nil, fmt.Errorf("trace: line %d: window before grid/data directives", lineNo)
			}
			if len(fields) != 1 {
				return nil, fmt.Errorf("trace: line %d: window takes no arguments, got %q", lineNo, line)
			}
			if t == nil {
				t = New(g, numData)
			}
			cur = t.AddWindow()
		case "ref":
			if cur == nil {
				return nil, fmt.Errorf("trace: line %d: ref outside a window", lineNo)
			}
			if len(fields) != 4 {
				return nil, fmt.Errorf("trace: line %d: ref takes three arguments", lineNo)
			}
			p, err1 := strconv.Atoi(fields[1])
			d, err2 := strconv.Atoi(fields[2])
			v, err3 := strconv.Atoi(fields[3])
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("trace: line %d: malformed ref %q", lineNo, line)
			}
			// Validate eagerly — the grid and data directives are known to
			// precede any window — so a bad event is reported with the line
			// it came from, not by the whole-trace sweep after parsing.
			switch {
			case p < 0 || p >= g.NumProcs():
				return nil, fmt.Errorf("trace: line %d: ref processor %d outside %v array", lineNo, p, g)
			case d < 0 || d >= numData:
				return nil, fmt.Errorf("trace: line %d: ref data %d outside [0,%d)", lineNo, d, numData)
			case v <= 0:
				return nil, fmt.Errorf("trace: line %d: ref volume %d is not positive", lineNo, v)
			}
			cur.Refs = append(cur.Refs, Ref{Proc: p, Data: DataID(d), Volume: v})
		default:
			return nil, fmt.Errorf("trace: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if !haveGrid || !haveData {
		return nil, fmt.Errorf("trace: missing grid/data directives")
	}
	if t == nil {
		t = New(g, numData)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// nextLine returns the next meaningful (non-blank, non-comment) line.
func nextLine(sc *bufio.Scanner, lineNo int) (string, int, error) {
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		return line, lineNo, nil
	}
	if err := sc.Err(); err != nil {
		return "", lineNo, fmt.Errorf("trace: read: %v", err)
	}
	return "", lineNo, io.EOF
}

func twoInts(fields []string) (int, int, error) {
	if len(fields) != 2 {
		return 0, 0, fmt.Errorf("want two integers, got %d fields", len(fields))
	}
	a, err := strconv.Atoi(fields[0])
	if err != nil {
		return 0, 0, err
	}
	b, err := strconv.Atoi(fields[1])
	if err != nil {
		return 0, 0, err
	}
	return a, b, nil
}
