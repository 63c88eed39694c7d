package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"

	"repro/internal/service"
)

// FNV-1a over the center matrix, with a row marker, so the per-op check
// compares a response with its serial result without decoding the
// whole JSON body.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
	rowMarker = -1 << 62
)

func fnvInt(h uint64, v int64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(v >> (8 * i)))
		h *= fnvPrime
	}
	return h
}

func digestCenters(centers [][]int) uint64 {
	h := uint64(fnvOffset)
	for _, row := range centers {
		h = fnvInt(h, rowMarker)
		for _, v := range row {
			h = fnvInt(h, int64(v))
		}
	}
	return h
}

// digestBody scans the "centers" array of a response body (an array of
// int arrays) and digests it the way digestCenters does.
func digestBody(body []byte) (uint64, error) {
	i := bytes.Index(body, []byte(`"centers":`))
	if i < 0 {
		return 0, errors.New("no centers field")
	}
	p := i + len(`"centers":`)
	ws := func() {
		for p < len(body) && (body[p] == ' ' || body[p] == '\n' || body[p] == '\t' || body[p] == '\r') {
			p++
		}
	}
	expect := func(c byte) error {
		ws()
		if p >= len(body) || body[p] != c {
			return fmt.Errorf("centers: want %q at byte %d", c, p)
		}
		p++
		return nil
	}
	if err := expect('['); err != nil {
		return 0, err
	}
	h := uint64(fnvOffset)
	ws()
	if p < len(body) && body[p] == ']' {
		return h, nil
	}
	for {
		if err := expect('['); err != nil {
			return 0, err
		}
		h = fnvInt(h, rowMarker)
		ws()
		if p < len(body) && body[p] == ']' {
			p++
		} else {
			for {
				ws()
				start := p
				for p < len(body) && (body[p] == '-' || body[p] >= '0' && body[p] <= '9') {
					p++
				}
				v, err := strconv.ParseInt(string(body[start:p]), 10, 64)
				if err != nil {
					return 0, fmt.Errorf("centers: %v", err)
				}
				h = fnvInt(h, v)
				ws()
				if p < len(body) && body[p] == ',' {
					p++
					continue
				}
				if err := expect(']'); err != nil {
					return 0, err
				}
				break
			}
		}
		ws()
		if p < len(body) && body[p] == ',' {
			p++
			continue
		}
		if err := expect(']'); err != nil {
			return 0, err
		}
		return h, nil
	}
}

// costOf decodes the "cost" object of a response body.
func costOf(body []byte) (service.CostJSON, error) {
	var c service.CostJSON
	i := bytes.Index(body, []byte(`"cost":`))
	if i < 0 {
		return c, errors.New("no cost field")
	}
	rest := body[i+len(`"cost":`):]
	j := bytes.IndexByte(rest, '}')
	if j < 0 {
		return c, errors.New("unterminated cost field")
	}
	if err := json.Unmarshal(rest[:j+1], &c); err != nil {
		return c, fmt.Errorf("cost: %v", err)
	}
	return c, nil
}

// intField reads a top-level integer field of a response body.
func intField(body []byte, name string) (int64, error) {
	key := []byte(`"` + name + `":`)
	i := bytes.Index(body, key)
	if i < 0 {
		return 0, fmt.Errorf("no %s field", name)
	}
	p := i + len(key)
	for p < len(body) && body[p] == ' ' {
		p++
	}
	start := p
	for p < len(body) && (body[p] == '-' || body[p] >= '0' && body[p] <= '9') {
		p++
	}
	return strconv.ParseInt(string(body[start:p]), 10, 64)
}
