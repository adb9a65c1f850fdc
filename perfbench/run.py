#!/usr/bin/env python3
"""P-Tucker benchmark driver.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

It compiles the program's sources together with the benchmark (sbt, once
per source state, into .bench_build/), then runs one JVM for one workload.
The last line of standard output is the JSON result; the exit code is 0
only when every fit passed its checks and the metrics match BENCHMARK.json.
See perfbench/METRICS.md.
"""
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
PROGRAM_SRC = os.path.join(ROOT, "src", "main", "scala")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840

JVM_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def spark_home():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    if not home or not os.path.isdir(os.path.join(home, "jars")):
        fail("no Spark installation found (set SPARK_HOME)")
    return home


def source_files():
    files = []
    for base in (PROGRAM_SRC, os.path.join(HERE, "src")):
        for d, _, names in os.walk(base):
            files += [os.path.join(d, n) for n in names]
    files += [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    return sorted(files)


def source_hash():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def build(env):
    """Compiles with sbt unless the sources are unchanged since the last build."""
    target = os.path.join(BUILD, "target")
    stamp = os.path.join(BUILD, "stamp")
    classpath = os.path.join(target, "classpath.txt")
    digest = source_hash()
    if os.path.exists(classpath) and os.path.exists(stamp):
        with open(stamp) as fh:
            if fh.read() == digest:
                return classpath
    os.makedirs(BUILD, exist_ok=True)
    if os.path.exists(stamp):
        os.remove(stamp)
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "writeClasspath"]
    proc = subprocess.run(cmd, cwd=HERE, env=dict(env, PERFBENCH_TARGET=target),
                          stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if proc.returncode != 0 or not os.path.exists(classpath):
        fail(f"build failed (sbt exit {proc.returncode})")
    with open(stamp, "w") as fh:
        fh.write(digest)
    return classpath


def cpu_steal():
    """(steal, total) CPU ticks of the machine so far, or None without /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            ticks = [int(x) for x in fh.readline().split()[1:9]]
        return ticks[7], sum(ticks)
    except (OSError, ValueError, IndexError):
        return None


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def on_term(signum, _frame):
    # Unwinds through the handlers that stop the build or the JVM.
    sys.exit(128 + signum)


def main(argv):
    signal.signal(signal.SIGTERM, on_term)
    self_test = "--self-test" in argv
    if not os.path.isdir(PROGRAM_SRC):
        fail(f"program sources not found under {os.path.relpath(PROGRAM_SRC, ROOT)}")
    trace = None
    if not self_test:
        if "--trace" not in argv or "--workload" not in argv:
            fail("usage: run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>")
        trace = argv[argv.index("--trace") + 1] == "1"
        expected = expected_metrics(trace)

    env = dict(os.environ, SPARK_HOME=spark_home())
    env.setdefault("COURSIER_MODE", "offline")
    classpath_file = build(env)
    with open(classpath_file) as fh:
        classpath = os.pathsep.join(line for line in fh.read().splitlines() if line)

    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # CompileThresholdScaling: the JIT compiles after a tenth of the usual
    # invocations, so fit times settle within the warm-up. At the default,
    # they kept falling for seven fits after it, and the level a run had
    # reached by the end differed from run to run by up to 15%.
    cmd = ["java", "-Xms2g", "-Xmx2g", "-XX:+UseParallelGC", "-XX:ParallelGCThreads=2",
           "-XX:CompileThresholdScaling=0.1", "-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}",
           f"-Dspark.local.dir={tmp}",
           f"-Dspark.sql.warehouse.dir={os.path.join(tmp, 'warehouse')}",
           "-Dspark.driver.host=127.0.0.1", "-Dspark.driver.bindAddress=127.0.0.1"]
    cmd += [f"--add-opens={p}=ALL-UNNAMED" for p in JVM_OPENS]
    cmd += ["-cp", classpath, "perfbench.Main"] + argv

    steal0 = cpu_steal()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    timed_out = threading.Event()

    def kill():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def on_timeout():
        timed_out.set()
        kill()

    watchdog = threading.Timer(RUN_TIMEOUT_S, on_timeout)
    watchdog.start()
    result = None
    try:
        for line in proc.stdout:
            if line.startswith("{"):
                result = line.strip()
            else:
                sys.stdout.write(line)
                sys.stdout.flush()
        code = proc.wait()
    except BaseException:
        kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
    if timed_out.is_set():
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    steal1 = cpu_steal()
    if steal0 and steal1 and steal1[1] > steal0[1]:
        share = 100.0 * (steal1[0] - steal0[0]) / (steal1[1] - steal0[1])
        print(f"# CPU steal during the run: {share:.1f}% of the machine's CPU time")
    if self_test:
        sys.exit(code)
    if result is None:
        fail(f"no result line (exit {code})")
    parsed = json.loads(result)
    got = set(parsed["metrics"])
    if got != expected:
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(expected - got)}, "
             f"extra {sorted(got - expected)}")
    print(json.dumps(parsed))
    sys.exit(0 if code == 0 and parsed["correct"] else 1)


if __name__ == "__main__":
    main(sys.argv[1:])
