#!/usr/bin/env python3
"""Repo-invariant linter: fast, compiler-free checks of conventions that the
type system cannot express. Wired into ctest (invariant_lint) and ci.sh, so a
violation fails tier-1, not just code review.

Rules (suppress one occurrence with `// lint-allow: <rule>` on the line):

  nested-rowid     no std::vector<std::vector<RowId>> in src/ headers — the
                   CSR partition substrate (DESIGN.md "Partition substrate")
                   made flat arenas the only partition representation.
  obs-naming       obs counter/span name literals follow the layer.noun[_verb]
                   convention from DESIGN.md: dotted lowercase, first segment
                   = subsystem (discover.*, partition.*, incr.*, svc.*, ...).
  naked-mutex      no std::mutex / std::condition_variable / std::lock_guard /
                   std::unique_lock outside src/util/mutex.h — all locking
                   goes through the annotated Mutex/MutexLock/CondVar shims
                   so Clang Thread Safety Analysis can prove lock discipline.
  header-guard     every header carries an include guard (#pragma once or a
                   matching #ifndef/#define pair).
  nondeterminism   no rand()/srand()/std::random_device/std::mt19937 outside
                   src/util/random.h — reproducibility across platforms is a
                   hard requirement for the datagen and sampling layers.
  obs-prefix       obs counter/gauge/histogram/span name literals in src/net/
                   carry the net. prefix (and in src/query/ the query.
                   prefix), so each subsystem's telemetry stays greppable
                   and dashboard-stable.
  naked-socket     no raw socket syscalls (socket/bind/listen/accept/connect/
                   recv*/send*/poll/epoll_*/setsockopt/...) outside src/net/ —
                   net/socket.h is the one place fd lifecycle and EINTR/EAGAIN
                   edge cases are handled; everything else speaks
                   Socket/Poller.
  rpc-obs-prefix   obs name literals in src/net/ containing an rpc. or http.
                   segment live under the net.rpc. / net.http. namespaces —
                   the per-RPC telemetry and endpoint metrics dashboards key
                   on those exact prefixes (DESIGN.md "Per-RPC telemetry").
  naked-http       no hand-rolled HTTP literals (request lines, HTTP/1.x
                   version strings) outside src/net/ — net/http.h is the one
                   place the accepted HTTP grammar lives, so the endpoint's
                   attack surface stays auditable in one file.
  naked-thread     no raw std::thread / std::jthread outside src/util/ —
                   compute parallelism goes through a ChunkRunner over the
                   job's ThreadPool (run_shards underneath handles slot
                   accounting, trace propagation, and obs-delta relay; a raw
                   thread gets none of that).
                   std::thread::hardware_concurrency() is a capacity query,
                   not a thread, and stays legal. The rare legitimate
                   dedicated thread (an event loop, a background writer)
                   carries a lint-allow with its rationale.

Usage:
  check_invariants.py [--root DIR]   lint the tree (exit 1 on findings)
  check_invariants.py --self-test    prove every rule fires and passes
"""

import argparse
import os
import re
import sys

# The obs naming grammar (name regex, call-site regex, per-directory prefix
# rules) is shared with tools/analyze/analyze.py via one module, so the two
# gates can never drift apart on what a legal name is.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "analyze"))
from obs_grammar import OBS_CALL_RE, OBS_NAME_RE, required_prefix  # noqa: E402

# ------------------------------------------------------------------ helpers

SUPPRESS_RE = re.compile(r"//\s*lint-allow:\s*([a-z-]+(?:\s*,\s*[a-z-]+)*)")


def strip_comments(text):
    """Blanks out // and /* */ comments (preserving newlines and suppression
    markers' line positions are handled separately, so plain blanking is fine
    for matching)."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line | block | str | chr
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "str"
            elif c == "'":
                state = "chr"
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state == "str":
            if c == "\\":
                out.append(c + nxt)
                i += 2
                continue
            if c == '"':
                state = "code"
            out.append(c)
        else:  # chr
            if c == "\\":
                out.append(c + nxt)
                i += 2
                continue
            if c == "'":
                state = "code"
            out.append(c)
        i += 1
    return "".join(out)


def suppressed_rules(line):
    m = SUPPRESS_RE.search(line)
    if not m:
        return set()
    return {r.strip() for r in m.group(1).split(",")}


class Finding:
    def __init__(self, path, line_no, rule, message):
        self.path = path
        self.line_no = line_no
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line_no}: [{self.rule}] {self.message}"


def line_findings(path, text, rule, pattern, message, exempt=lambda m: False):
    """One finding per regex match, honoring same-line suppressions (matched
    against the ORIGINAL text so markers inside comments count)."""
    original_lines = text.splitlines()
    stripped = strip_comments(text)
    findings = []
    for i, line in enumerate(stripped.splitlines(), start=1):
        for m in pattern.finditer(line):
            if exempt(m):
                continue
            raw = original_lines[i - 1] if i <= len(original_lines) else ""
            if rule in suppressed_rules(raw):
                continue
            findings.append(Finding(path, i, rule, message(m)))
    return findings


# -------------------------------------------------------------------- rules

NESTED_ROWID_RE = re.compile(
    r"std::vector\s*<\s*std::vector\s*<\s*RowId\b")


def check_nested_rowid(path, text):
    if not path.endswith(".h"):
        return []
    return line_findings(
        path, text, "nested-rowid", NESTED_ROWID_RE,
        lambda m: "nested std::vector<std::vector<RowId>> in a header; "
                  "use the flat CSR StrippedPartition arena instead")


# OBS_NAME_RE / OBS_CALL_RE come from tools/analyze/obs_grammar.py (shared
# with the analyzer's schema pass).
def check_obs_naming(path, text):
    return line_findings(
        path, text, "obs-naming", OBS_CALL_RE,
        lambda m: f'obs name "{m.group(1)}" does not match the '
                  "layer.noun[_verb] convention (dotted lowercase, "
                  "first segment = subsystem; see DESIGN.md)",
        exempt=lambda m: OBS_NAME_RE.match(m.group(1)) is not None)


NAKED_MUTEX_RE = re.compile(
    r"\bstd::(mutex|timed_mutex|recursive_mutex|shared_mutex|"
    r"condition_variable(?:_any)?|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock)\b")
MUTEX_SHIM = os.path.join("src", "util", "mutex.h")


def check_naked_mutex(path, text):
    if path.replace(os.sep, "/").endswith("src/util/mutex.h"):
        return []
    return line_findings(
        path, text, "naked-mutex", NAKED_MUTEX_RE,
        lambda m: f"naked std::{m.group(1)}; use the annotated "
                  "Mutex/MutexLock/CondVar shims from util/mutex.h so "
                  "thread-safety analysis can see the lock")


GUARD_IFNDEF_RE = re.compile(r"^\s*#\s*ifndef\s+(\w+)", re.MULTILINE)
GUARD_DEFINE_RE = re.compile(r"^\s*#\s*define\s+(\w+)", re.MULTILINE)


def check_header_guard(path, text):
    if not path.endswith(".h"):
        return []
    stripped = strip_comments(text)
    if "#pragma once" in stripped:
        return []
    ifndef = GUARD_IFNDEF_RE.search(stripped)
    if ifndef:
        define = GUARD_DEFINE_RE.search(stripped)
        if define and define.group(1) == ifndef.group(1):
            return []
    if "lint-allow: header-guard" in text:
        return []
    return [Finding(path, 1, "header-guard",
                    "header lacks an include guard (#pragma once or a "
                    "matching #ifndef/#define pair)")]


NONDET_RE = re.compile(
    r"(?<![\w:])(?:s?rand\s*\(|std::random_device\b|std::mt19937(?:_64)?\b)")
RNG_HOME = "src/util/random.h"


def check_nondeterminism(path, text):
    if path.replace(os.sep, "/").endswith(RNG_HOME):
        return []
    return line_findings(
        path, text, "nondeterminism", NONDET_RE,
        lambda m: f"nondeterministic source '{m.group(0).strip('(').strip()}'; "
                  "seed a dhyfd::Random (util/random.h) instead so runs "
                  "reproduce across platforms")


NET_DIR = "src/net/"
QUERY_DIR = "src/query/"


def _check_obs_prefix(path, text, scope_dir):
    """Common body for the per-subsystem prefix rules: the prefix itself
    comes from obs_grammar.PREFIX_RULES via required_prefix()."""
    norm = path.replace(os.sep, "/")
    if not norm.startswith(scope_dir):
        return []
    prefix = required_prefix(norm)
    if prefix is None:
        return []
    return line_findings(
        path, text, "obs-prefix", OBS_CALL_RE,
        lambda m: f'obs name "{m.group(1)}" in {scope_dir} must start with '
                  f'"{prefix}" so the subsystem\'s telemetry stays greppable',
        exempt=lambda m: m.group(1).startswith(prefix))


def check_net_obs_prefix(path, text):
    return _check_obs_prefix(path, text, NET_DIR)


def check_query_obs_prefix(path, text):
    return _check_obs_prefix(path, text, QUERY_DIR)


# An rpc. or http. segment anywhere in an obs name. Names that carry one
# must sit under the net.rpc. / net.http. namespaces — /metrics dashboards
# and the bench's server-side percentiles select on those exact prefixes.
RPC_SEGMENT_RE = re.compile(r"(?:^|\.)(rpc|http)\.")


def check_rpc_obs_prefix(path, text):
    if not path.replace(os.sep, "/").startswith(NET_DIR):
        return []

    def exempt(m):
        name = m.group(1)
        seg = RPC_SEGMENT_RE.search(name)
        if seg is None:
            return True  # no rpc./http. segment: obs-prefix covers the rest
        return name.startswith(f"net.{seg.group(1)}.")

    return line_findings(
        path, text, "rpc-obs-prefix", OBS_CALL_RE,
        lambda m: f'obs name "{m.group(1)}" carries an rpc./http. segment '
                  'outside the net.rpc./net.http. namespace the dashboards '
                  "key on",
        exempt=exempt)


# A string literal that starts an HTTP request line or names an HTTP/1.x
# version. Anywhere outside src/net/ this means someone is hand-rolling the
# protocol instead of using net/http.h's parser/renderer.
NAKED_HTTP_RE = re.compile(
    r'"(?:GET|POST|HEAD|PUT|DELETE|OPTIONS) /|HTTP/1\.[01]')


def check_naked_http(path, text):
    if path.replace(os.sep, "/").startswith(NET_DIR):
        return []
    return line_findings(
        path, text, "naked-http", NAKED_HTTP_RE,
        lambda m: "hand-rolled HTTP literal outside src/net/; parse and "
                  "render through net/http.h so the accepted grammar stays "
                  "in one audited file")


# A bare or global-namespace call to a socket-layer syscall. The optional
# prefix group distinguishes `::connect(` (a violation) from `std::bind(`
# or `resolver::connect(` (library / member-style calls, exempt); the
# lookbehind drops `obj.send(` / `ptr->recv(` member calls. `shutdown` is
# deliberately absent: it is a ubiquitous method name, and no socket can
# exist to shut down unless one of the listed calls appeared first.
NAKED_SOCKET_RE = re.compile(
    r"(?<![\w.>])((?:::)?|(?:\w+::)+)"
    r"(socket|bind|listen|accept4?|connect|recvfrom|recvmsg|recv|sendto|"
    r"sendmsg|send|setsockopt|getsockopt|getsockname|getpeername|inet_pton|"
    r"inet_ntop|poll|ppoll|epoll_create1?|epoll_ctl|epoll_wait)\s*\(")


def check_naked_socket(path, text):
    if path.replace(os.sep, "/").startswith(NET_DIR):
        return []
    return line_findings(
        path, text, "naked-socket", NAKED_SOCKET_RE,
        lambda m: f"naked socket syscall '{m.group(2)}' outside src/net/; "
                  "use the Socket/Poller wrappers from net/socket.h, which "
                  "own the fd lifecycle and the EINTR/EAGAIN edge cases",
        exempt=lambda m: m.group(1) not in ("", "::"))


# A raw std::thread/std::jthread mention outside src/util/. The negative
# lookahead keeps std::thread::hardware_concurrency() (a capacity query with
# no thread behind it) legal everywhere.
NAKED_THREAD_RE = re.compile(
    r"\bstd::(thread|jthread)\b(?!::hardware_concurrency)")
UTIL_DIR = "src/util/"


def check_naked_thread(path, text):
    if path.replace(os.sep, "/").startswith(UTIL_DIR):
        return []
    return line_findings(
        path, text, "naked-thread", NAKED_THREAD_RE,
        lambda m: f"raw std::{m.group(1)} outside src/util/; fan work out "
                  "through a ChunkRunner over the job's ThreadPool so slot "
                  "accounting, trace propagation, and obs-delta relay hold")


ALL_CHECKS = [
    check_nested_rowid,
    check_obs_naming,
    check_naked_mutex,
    check_header_guard,
    check_nondeterminism,
    check_net_obs_prefix,
    check_query_obs_prefix,
    check_rpc_obs_prefix,
    check_naked_http,
    check_naked_socket,
    check_naked_thread,
]

# ------------------------------------------------------------------- driver

# Which trees each rule sweeps. Tests may use ad-hoc metric names and raw
# std threading primitives to attack the shims, so the style rules stay
# scoped to src/; determinism also covers bench/ and examples/ because their
# JSON rows and demo output are diffed across runs.
SCOPES = {
    check_nested_rowid: ["src"],
    check_obs_naming: ["src"],
    check_naked_mutex: ["src"],
    check_header_guard: ["src", "bench", "tests", "examples"],
    check_nondeterminism: ["src", "bench", "examples"],
    check_net_obs_prefix: ["src"],
    check_query_obs_prefix: ["src"],
    check_rpc_obs_prefix: ["src"],
    check_naked_http: ["src", "bench", "examples"],
    check_naked_socket: ["src", "bench", "examples"],
    check_naked_thread: ["src"],
}

SOURCE_EXTS = (".h", ".cc", ".cpp")


def lint_tree(root):
    findings = []
    for check, scopes in SCOPES.items():
        for scope in scopes:
            base = os.path.join(root, scope)
            if not os.path.isdir(base):
                continue
            for dirpath, dirnames, filenames in os.walk(base):
                dirnames[:] = [d for d in dirnames if not d.startswith(".")]
                for name in sorted(filenames):
                    if not name.endswith(SOURCE_EXTS):
                        continue
                    path = os.path.join(dirpath, name)
                    rel = os.path.relpath(path, root)
                    with open(path, encoding="utf-8", errors="replace") as f:
                        text = f.read()
                    findings.extend(check(rel, text))
    return findings


# ---------------------------------------------------------------- self-test

# (rule, virtual path, snippet, expected finding count)
FIXTURES = [
    # nested-rowid: fires on the nested vector, passes on flat CSR members
    # and on suppressed lines, and ignores .cc files (scratch buffers are
    # allowed outside headers).
    (check_nested_rowid, "src/partition/bad.h",
     "std::vector<std::vector<RowId>> clusters_;\n", 1),
    (check_nested_rowid, "src/partition/bad_spaced.h",
     "std::vector< std::vector< RowId > > clusters_;\n", 1),
    (check_nested_rowid, "src/partition/good.h",
     "std::vector<RowId> arena_;\nstd::vector<uint32_t> offsets_;\n", 0),
    (check_nested_rowid, "src/partition/allowed.h",
     "std::vector<std::vector<RowId>> g_;  // lint-allow: nested-rowid\n", 0),
    (check_nested_rowid, "src/partition/scratch.cc",
     "std::vector<std::vector<RowId>> tmp;\n", 0),
    # obs-naming: fires on undotted/uppercase names, passes on layer.noun.
    (check_obs_naming, "src/algo/bad.cc",
     'ObsAdd("validatorCalls");\n', 1),
    (check_obs_naming, "src/algo/bad2.cc",
     'metrics_->counter("jobsSubmitted").inc();\n', 1),
    (check_obs_naming, "src/algo/bad3.cc",
     'TraceSpan span("Discover.Sampling");\n', 1),
    (check_obs_naming, "src/algo/good.cc",
     'ObsAdd("discover.validator.calls");\n'
     'TraceSpan span("discover.sampling");\n'
     'metrics_->histogram("jobs.run_seconds").record(s);\n'
     'tracer.record_span("svc.queue_wait", id, a, b);\n', 0),
    (check_obs_naming, "src/algo/nonliteral.cc",
     "metrics_->histogram(stage_name).record(s);\n", 0),
    (check_obs_naming, "src/algo/comment.cc",
     '// ObsAdd("NotAName") in a comment is fine\n', 0),
    # naked-mutex: fires on std primitives, passes on the shims and on the
    # shim header itself.
    (check_naked_mutex, "src/service/bad.h",
     "mutable std::mutex mu_;\n", 1),
    (check_naked_mutex, "src/service/bad2.cc",
     "std::lock_guard<std::mutex> lock(mu_);\n", 2),
    (check_naked_mutex, "src/service/bad3.h",
     "std::condition_variable cv_;\n", 1),
    (check_naked_mutex, "src/service/good.h",
     "mutable Mutex mu_;\nCondVar cv_;\nMutexLock lock(&mu_);\n", 0),
    (check_naked_mutex, "src/util/mutex.h",
     "class Mutex { std::mutex mu_; };\n", 0),
    (check_naked_mutex, "src/service/comment.cc",
     "// std::mutex is banned outside util/mutex.h\n", 0),
    # header-guard: fires on a bare header, passes on both guard styles.
    (check_header_guard, "src/util/bad.h",
     "namespace dhyfd {}\n", 1),
    (check_header_guard, "src/util/pragma.h",
     "#pragma once\nnamespace dhyfd {}\n", 0),
    (check_header_guard, "src/util/classic.h",
     "#ifndef DHYFD_UTIL_CLASSIC_H_\n#define DHYFD_UTIL_CLASSIC_H_\n"
     "#endif\n", 0),
    (check_header_guard, "src/util/mismatched.h",
     "#ifndef GUARD_A\n#define GUARD_B\n#endif\n", 1),
    (check_header_guard, "src/util/impl.cc",
     "namespace dhyfd {}\n", 0),
    # nondeterminism: fires on rand()/random_device/mt19937, passes on the
    # seeded dhyfd::Random and on the rng home itself.
    (check_nondeterminism, "src/datagen/bad.cc",
     "int x = rand() % 10;\n", 1),
    (check_nondeterminism, "src/datagen/bad2.cc",
     "std::random_device rd;\nstd::mt19937 gen(rd());\n", 2),
    (check_nondeterminism, "src/datagen/bad3.cc",
     "srand(time(nullptr));\n", 1),
    (check_nondeterminism, "src/datagen/good.cc",
     "Random rng(42);\nuint64_t v = rng.next_u64();\n", 0),
    (check_nondeterminism, "src/util/random.h",
     "// splitmix64, no std::random_device anywhere\n", 0),
    (check_nondeterminism, "src/datagen/operand.cc",
     "int operand(int a);\nint brand(int b);\n", 0),
    # obs-prefix: names in src/net/ must start with "net."; files elsewhere
    # are out of scope for this rule (obs-naming still applies to them).
    (check_net_obs_prefix, "src/net/bad.cc",
     'metrics_->counter("conns.accepted").inc();\n', 1),
    (check_net_obs_prefix, "src/net/bad2.cc",
     'TraceSpan span("svc.request");\n', 1),
    (check_net_obs_prefix, "src/net/good.cc",
     'metrics_->counter("net.frames_rx").inc();\n'
     'metrics_->gauge("net.connections").add(1);\n'
     'TraceSpan span("net.request");\n', 0),
    (check_net_obs_prefix, "src/service/other.cc",
     'metrics_->counter("jobs.submitted").inc();\n', 0),
    (check_net_obs_prefix, "src/net/allowed.cc",
     'counter("legacy.name")  // lint-allow: obs-prefix\n', 0),
    # obs-prefix (query): names in src/query/ must start with "query.";
    # other trees are out of scope for this variant.
    (check_query_obs_prefix, "src/query/bad.cc",
     'ObsAdd("topk.validations");\n', 1),
    (check_query_obs_prefix, "src/query/bad2.cc",
     'TraceSpan span("engine.execute");\n', 1),
    (check_query_obs_prefix, "src/query/good.cc",
     'ObsAdd("query.validations");\n'
     'TraceSpan span("query.lattice_level");\n'
     'metrics_->counter("query.executes").inc();\n', 0),
    (check_query_obs_prefix, "src/ranking/other.cc",
     'ObsAdd("rank.scored");\n', 0),
    (check_query_obs_prefix, "src/query/allowed.cc",
     'counter("legacy.name")  // lint-allow: obs-prefix\n', 0),
    # rpc-obs-prefix: rpc./http. segments in src/net/ obs names must live
    # under net.rpc./net.http.; names without such a segment are left to the
    # plain obs-prefix rule, and other trees are out of scope.
    (check_rpc_obs_prefix, "src/net/bad.cc",
     'metrics_->counter("rpc.requests").inc();\n', 1),
    (check_rpc_obs_prefix, "src/net/bad2.cc",
     'metrics_->gauge("http.connections").add(1);\n', 1),
    (check_rpc_obs_prefix, "src/net/bad3.cc",
     'metrics_->histogram("svc.rpc.run_seconds").record(s);\n', 1),
    (check_rpc_obs_prefix, "src/net/good.cc",
     'metrics_->counter("net.rpc.requests").inc();\n'
     'metrics_->gauge("net.http.connections").add(1);\n'
     'metrics_->histogram("net.rpc.queue_seconds").record(s);\n'
     'metrics_->counter("net.frames_rx").inc();\n', 0),
    (check_rpc_obs_prefix, "src/service/other.cc",
     'metrics_->counter("rpc.requests").inc();\n', 0),
    (check_rpc_obs_prefix, "src/net/allowed.cc",
     'counter("rpc.legacy")  // lint-allow: rpc-obs-prefix\n', 0),
    # naked-http: HTTP request-line / version literals outside src/net/ fire;
    # net/http.* itself and comments are exempt.
    (check_naked_http, "src/service/bad.cc",
     'std::string req = "GET /metrics HTTP/1.0\\r\\n\\r\\n";\n', 2),
    (check_naked_http, "src/obs/bad2.cc",
     'out += "HTTP/1.1 200 OK";\n', 1),
    (check_naked_http, "src/net/http.cc",
     '"GET /metrics HTTP/1.0\\r\\n\\r\\n";\n', 0),
    (check_naked_http, "src/service/good.cc",
     'std::string path = "/metrics";  // served by net/http.h\n', 0),
    (check_naked_http, "src/service/comment.cc",
     '// a "GET /metrics HTTP/1.0" example in a comment is fine\n', 0),
    # naked-socket: fires on bare and ::-qualified syscalls outside src/net/,
    # passes on member calls, std::bind, and anything inside src/net/.
    (check_naked_socket, "src/service/bad.cc",
     "int fd = socket(AF_INET, SOCK_STREAM, 0);\n", 1),
    (check_naked_socket, "src/service/bad2.cc",
     "::connect(fd, addr, len);\nrecv(fd, buf, n, 0);\n", 2),
    (check_naked_socket, "src/service/bad3.cc",
     "setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);\n"
     "poll(fds, n, timeout);\n", 2),
    (check_naked_socket, "src/service/good.cc",
     "Socket s = ConnectTcp(host, port);\n"
     "auto f = std::bind(&T::run, this);\n"
     "client.send_frame(type, id, payload);\n"
     "sock.connect_timeout();\nobj->sendto_queue(x);\n", 0),
    (check_naked_socket, "src/net/socket.cc",
     "int fd = ::socket(AF_INET, SOCK_STREAM, 0);\n", 0),
    (check_naked_socket, "src/service/member.cc",
     "pool_.shutdown();\nbus.send(msg);\nself->poll(1);\n", 0),
    (check_naked_socket, "src/service/comment.cc",
     "// recv(fd, ...) in a comment is fine\n", 0),
    (check_naked_socket, "src/service/allowed.cc",
     "poll(fds, n, t);  // lint-allow: naked-socket\n", 0),
    # naked-thread: fires on raw std::thread/jthread outside src/util/,
    # passes on hardware_concurrency queries, the pool's own home, member
    # names, suppressed lines, and comments.
    (check_naked_thread, "src/service/bad.cc",
     "std::thread worker([] { run(); });\n", 1),
    (check_naked_thread, "src/net/bad2.h",
     "std::jthread loop_;\n", 1),
    (check_naked_thread, "src/service/bad3.h",
     "std::vector<std::thread> workers_;\n", 1),
    (check_naked_thread, "src/service/good.cc",
     "unsigned hw = std::thread::hardware_concurrency();\n"
     "runner.run<NoResult>(n, kObsDiscoverShard, body);\n", 0),
    (check_naked_thread, "src/util/thread_pool.cc",
     "std::vector<std::thread> to_join;\n", 0),
    (check_naked_thread, "src/service/member.cc",
     "my::thread t;\nobj.thread();\n", 0),
    (check_naked_thread, "src/net/allowed.cc",
     "std::thread loop_;  // lint-allow: naked-thread\n", 0),
    (check_naked_thread, "src/service/comment.cc",
     "// std::thread is banned outside src/util/\n", 0),
]


def self_test():
    failures = 0
    for check, path, snippet, expected in FIXTURES:
        got = check(path, snippet)
        status = "ok" if len(got) == expected else "FAIL"
        if len(got) != expected:
            failures += 1
        print(f"[{status}] {check.__name__:22s} {path}: "
              f"expected {expected}, got {len(got)}")
        if status == "FAIL":
            for f in got:
                print(f"       {f}")
    if failures:
        print(f"self-test: {failures} fixture(s) failed")
        return 1
    print(f"self-test: all {len(FIXTURES)} fixtures passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of this script)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the rule fixtures instead of linting")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    findings = lint_tree(root)
    for f in findings:
        print(f)
    if findings:
        print(f"check_invariants: {len(findings)} finding(s)")
        return 1
    print("check_invariants: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
