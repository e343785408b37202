package sizeparse

import "testing"

func TestParse(t *testing.T) {
	good := map[string]int{
		"0":      0,
		"4096":   4096,
		"1B":     1,
		"100KB":  100 << 10,
		"100KiB": 100 << 10,
		"64K":    64 << 10,
		"1MiB":   1 << 20,
		"256MB":  256 << 20,
		"8M":     8 << 20,
		"2GiB":   2 << 30,
		"1G":     1 << 30,
		" 7MiB ": 7 << 20,
		"12 MiB": 12 << 20,
		// Suffixes fold case: command-line flags (-capacity,
		// -maxsegment, cpbench -bufsize) accept what humans type.
		"64kib":  64 << 10,
		"64kb":   64 << 10,
		"64k":    64 << 10,
		"16mib":  16 << 20,
		"1gb":    1 << 30,
		"2g":     2 << 30,
		"16MIB":  16 << 20,
		"512b":   512,
		"3 gib ": 3 << 30,
	}
	for in, want := range good {
		got, err := Parse(in)
		if err != nil || got != want {
			t.Errorf("Parse(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	bad := []string{"", "abc", "-1", "-5MB", "1.5MB", "MB", "10TB10", "64 k b", "kib", "12x"}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded", in)
		}
	}
}

func TestMustParse(t *testing.T) {
	if got := MustParse("64MiB"); got != 64<<20 {
		t.Fatalf("MustParse(64MiB) = %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse on garbage did not panic")
		}
	}()
	MustParse("not-a-size")
}

func TestParseOverflow(t *testing.T) {
	if _, err := Parse("9999999999999G"); err == nil {
		t.Fatal("overflow accepted")
	}
}

func TestFormat(t *testing.T) {
	cases := map[int]string{
		0:         "0B",
		512:       "512B",
		100 << 10: "100KB",
		1 << 20:   "1MB",
		128 << 20: "128MB",
		4 << 30:   "4GB",
		1500:      "1500B",
	}
	for in, want := range cases {
		got := Format(in)
		if got != want {
			t.Errorf("Format(%d) = %q, want %q", in, got, want)
		}
		if back, err := Parse(got); err != nil || back != in {
			t.Errorf("Parse(Format(%d)) = %d, %v", in, back, err)
		}
	}
}
