#!/usr/bin/env python3
"""QR2 service benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload md-deep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --selftest

Builds the program from ../src/main/scala together with the benchmark's
own code (perfbench/src) with sbt, once per source state, and runs the
known-answer self-test after every build. Then it starts one JVM that runs
the workload and prints metrics; the last stdout line is the JSON result.
Build output goes to perfbench/target and perfbench/.build, run files to
perfbench/.run and perfbench/out.
"""
import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROGRAM_SRC = ROOT / "src" / "main" / "scala"
BUILD = HERE / ".build"
RUN = HERE / ".run"

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 780

# Spark 4 on JDK 17 needs these packages opened, as spark-submit does.
OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def source_stamp():
    """Hash of every input of the build, so a changed source rebuilds."""
    h = hashlib.sha256()
    files = sorted(PROGRAM_SRC.rglob("*.scala")) + sorted((HERE / "src").rglob("*.scala"))
    files += [HERE / "build.sbt", HERE / "project" / "build.properties"]
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def run_checked(cmd, timeout, **kw):
    """Run a child process to completion; on timeout it is killed and reaped."""
    try:
        return subprocess.run(cmd, timeout=timeout, **kw)
    except subprocess.TimeoutExpired:
        log(f"timed out after {timeout} s: {' '.join(cmd[:3])} ...")
        sys.exit(3)


def java_cmd(classpath, args):
    tmp = RUN / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return (
        ["java", "-Xmx3g", "-XX:+UseG1GC", f"-Djava.io.tmpdir={tmp}",
         f"-Dlog4j2.configurationFile={HERE / 'log4j2.properties'}",
         f"-Dspark.local.dir={tmp}", f"-Dspark.sql.warehouse.dir={RUN / 'warehouse'}",
         "-Dspark.driver.host=127.0.0.1", "-Djdk.reflect.useDirectMethodHandleAccessor=false"]
        + [f"--add-opens={p}=ALL-UNNAMED" for p in OPENS]
        + ["-cp", classpath, "qr2bench.Main"] + args
    )


def build():
    """Compile with sbt (offline) and record the runtime classpath."""
    stamp = source_stamp()
    cp_file, stamp_file = BUILD / "classpath", BUILD / "stamp"
    if stamp_file.exists() and cp_file.exists() and stamp_file.read_text() == stamp:
        return cp_file.read_text().strip()
    log("building (sbt compile) ...")
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    env.setdefault("SBT_OPTS", "-Dsbt.override.build.repos=true "
                   f"-Dsbt.repository.config={Path.home() / '.sbt' / 'repositories'} "
                   "-Dsbt.offline=true -Xmx2g")
    res = run_checked(
        ["sbt", "--batch", "-Dsbt.server.autostart=false", "-Dsbt.log.noformat=true",
         "compile", "export Runtime/fullClasspath"],
        BUILD_TIMEOUT_S, cwd=HERE, env=env, stdout=subprocess.PIPE, stderr=sys.stderr,
        text=True)
    lines = [l for l in res.stdout.splitlines() if l.strip()]
    if res.returncode != 0 or not lines or "[error]" in res.stdout:
        sys.stderr.write(res.stdout)
        log("build failed")
        sys.exit(2)
    classpath = lines[-1].strip()
    log("running the known-answer self-test ...")
    test = run_checked(java_cmd(classpath, ["--selftest"]), RUN_TIMEOUT_S, cwd=ROOT,
                       stdout=subprocess.PIPE, text=True)
    sys.stderr.write(test.stdout)
    if test.returncode != 0:
        log("self-test failed: the pinned catalogues do not reproduce the recorded cells")
        sys.exit(2)
    BUILD.mkdir(parents=True, exist_ok=True)
    cp_file.write_text(classpath)
    stamp_file.write_text(stamp)
    return classpath


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--cores", type=int, help="Spark local[N] threads (default min(nproc, 4))")
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if not PROGRAM_SRC.is_dir():
        log(f"program sources not found at {PROGRAM_SRC}; run from a full checkout")
        sys.exit(2)
    if not a.selftest and not a.workload:
        ap.error("--workload is required")
    classpath = build()
    if a.selftest:
        args = ["--selftest"]
    else:
        args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
                "--trace", str(a.trace)]
        if a.cores:
            args += ["--cores", str(a.cores)]
    res = run_checked(java_cmd(classpath, args), RUN_TIMEOUT_S, cwd=ROOT)
    sys.exit(res.returncode)


if __name__ == "__main__":
    main()
