package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// reproStdoutSHA256 is the SHA-256 of vdnn-repro's stdout (all experiments)
// at the commit that defined this benchmark. Every pass must reproduce it
// byte for byte, at any -j and with or without a store.
const reproStdoutSHA256 = "2870fafc137c40ac7f3cedd70530c82fbbf05f5346ab3804ad4cdb5a9a1e3487"

// pass is one vdnn-repro process run.
type pass struct {
	Wall   time.Duration
	CPU    time.Duration // user + system time of the child
	RSSMB  float64       // peak RSS of the child (rusage maxrss)
	Stdout []byte
	Stderr []byte
}

// runRepro runs vdnn-repro over all experiments with extra flags.
func runRepro(bin string, extra ...string) (pass, error) {
	var out, errb bytes.Buffer
	cmd := exec.Command(bin, extra...)
	cmd.SysProcAttr = dieWithParent()
	cmd.Stdout, cmd.Stderr = &out, &errb
	t0 := time.Now()
	err := cmd.Run()
	p := pass{Wall: time.Since(t0), Stdout: out.Bytes(), Stderr: errb.Bytes()}
	if err != nil {
		return p, fmt.Errorf("vdnn-repro %v: %v: %s", extra, err, errb.Bytes())
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		p.RSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		p.CPU = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return p, nil
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// checkStdout verifies a pass against the recorded output hash.
func checkStdout(p pass) error {
	if got := sha(p.Stdout); got != reproStdoutSHA256 {
		return fmt.Errorf("vdnn-repro stdout sha256 %s, want %s", got, reproStdoutSHA256)
	}
	return nil
}

// checkParallelism runs vdnn-repro at -j 1 and -j nproc and requires the
// two outputs to match the recorded hash (and so each other).
func checkParallelism(bin string) error {
	for _, j := range []int{1, runtime.NumCPU()} {
		p, err := runRepro(bin, "-j", strconv.Itoa(j))
		if err != nil {
			return err
		}
		if err := checkStdout(p); err != nil {
			return fmt.Errorf("-j %d: %w", j, err)
		}
	}
	return nil
}
