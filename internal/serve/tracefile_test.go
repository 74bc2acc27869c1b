package serve

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

const traceHead = `{"v":1,"gen":{"tenants":1,"requests":2,"keys_per_tenant":4,"key_len":8,"kind":"btree","tenant_skew":0,"key_skew":0,"mean_gap":10,"seed":1}}` + "\n"

// TestReadTraceRejectsBadSeq pins that a request's seq must be its
// position in the trace: a gap or a duplicate is rejected, naming the
// offending line.
func TestReadTraceRejectsBadSeq(t *testing.T) {
	for name, body := range map[string]string{
		"gap":       `{"seq":0,"tenant":0,"at":1,"key":"0000000000000001"}` + "\n" + `{"seq":2,"tenant":0,"at":2,"key":"0000000000000002"}`,
		"duplicate": `{"seq":0,"tenant":0,"at":1,"key":"0000000000000001"}` + "\n" + `{"seq":0,"tenant":0,"at":2,"key":"0000000000000002"}`,
		"offset":    `{"seq":1,"tenant":0,"at":1,"key":"0000000000000001"}`,
	} {
		_, _, err := ReadTrace(strings.NewReader(traceHead + body))
		if err == nil {
			t.Fatalf("%s: bad seq accepted", name)
		}
		if !strings.Contains(err.Error(), "line ") {
			t.Fatalf("%s: error %q names no line", name, err)
		}
	}
	if _, reqs, err := ReadTrace(strings.NewReader(traceHead +
		`{"seq":0,"tenant":0,"at":1,"key":"0000000000000001"}` + "\n\n" +
		`{"seq":1,"tenant":0,"at":2,"key":"0000000000000002","op":"del"}`)); err != nil || len(reqs) != 2 {
		t.Fatalf("well-formed trace with a blank line: %d requests, %v", len(reqs), err)
	}
}

// FuzzReadTrace feeds arbitrary bytes to the trace reader: it must never
// panic, and whatever it accepts must survive an encode/decode round
// trip unchanged.
func FuzzReadTrace(f *testing.F) {
	cfg := testGenRW()
	cfg.Requests = 6
	cfg.Grow = true
	reqs, err := Generate(cfg)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, cfg, reqs); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(traceHead))
	f.Add([]byte(traceHead + `{"seq":0,"tenant":-1,"at":0,"key":"zz","op":"put","value":3}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		gen, reqs, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteTrace(&out, gen, reqs); err != nil {
			t.Fatalf("re-encoding an accepted trace: %v", err)
		}
		gen2, reqs2, err := ReadTrace(&out)
		if err != nil {
			t.Fatalf("re-reading an encoded trace: %v\n%s", err, out.Bytes())
		}
		if !reflect.DeepEqual(gen, gen2) || !reflect.DeepEqual(reqs, reqs2) {
			t.Fatalf("round trip changed the trace:\n%+v %+v\n%+v %+v", gen, reqs, gen2, reqs2)
		}
	})
}
