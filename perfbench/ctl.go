package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"time"
)

// The coordinator stack and the relay host run as child processes of
// the generator (the same binary, role chosen by roleEnv), so their CPU
// and memory are their own. The generator drives them over stdin and
// stdout, one JSON object per line: nothing but generated traffic
// reaches the coordinator's HTTP API.
const roleEnv = "PERFBENCH_ROLE"

type ctlRequest struct {
	Cmd string `json:"cmd"`
}

type ctlReply struct {
	Err  string          `json:"err,omitempty"`
	Data json.RawMessage `json:"data,omitempty"`
}

// serveControl answers commands until stdin closes. The first line
// written is hello, before any command is read.
func serveControl(hello any, handle func(cmd string) (any, error)) error {
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(hello); err != nil {
		return err
	}
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		var req ctlRequest
		if err := json.Unmarshal(sc.Bytes(), &req); err != nil {
			return fmt.Errorf("control: %w", err)
		}
		data, err := handle(req.Cmd)
		var rep ctlReply
		if err != nil {
			rep.Err = err.Error()
		} else if rep.Data, err = json.Marshal(data); err != nil {
			return err
		}
		if err := out.Encode(rep); err != nil {
			return err
		}
	}
	return sc.Err()
}

type child struct {
	cmd  *exec.Cmd
	in   io.WriteCloser
	out  *bufio.Reader
	done chan error
}

// startChild runs this binary in role and decodes its hello into hello.
func startChild(role string, hello any, args ...string) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), roleEnv+"="+role)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	outPipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", role, err)
	}
	c := &child{cmd: cmd, in: in, out: bufio.NewReaderSize(outPipe, 1<<20)}
	line, err := c.out.ReadBytes('\n')
	if err == nil {
		err = json.Unmarshal(line, hello)
	}
	if err != nil {
		c.stop()
		return nil, fmt.Errorf("%s did not start: %v", role, err)
	}
	c.done = make(chan error, 1)
	go func() { c.done <- cmd.Wait() }()
	return c, nil
}

// call sends one command and decodes the reply's data into out.
func (c *child) call(cmd string, out any) error {
	raw, err := json.Marshal(ctlRequest{Cmd: cmd})
	if err != nil {
		return err
	}
	if _, err := c.in.Write(append(raw, '\n')); err != nil {
		return fmt.Errorf("%s: %w", cmd, err)
	}
	line, err := c.out.ReadBytes('\n')
	if err != nil {
		return fmt.Errorf("%s: %w", cmd, err)
	}
	var rep ctlReply
	if err := json.Unmarshal(line, &rep); err != nil {
		return fmt.Errorf("%s: %w", cmd, err)
	}
	if rep.Err != "" {
		return fmt.Errorf("%s: %s", cmd, rep.Err)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(rep.Data, out)
}

// stop closes the child's stdin, which ends it, and waits; a child
// that does not exit in time is killed.
func (c *child) stop() {
	c.in.Close()
	if c.done == nil {
		_ = c.cmd.Process.Kill()
		_ = c.cmd.Wait()
		return
	}
	select {
	case <-c.done:
	case <-time.After(20 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.done
	}
}
