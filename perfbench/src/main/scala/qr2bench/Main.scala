package qr2bench

import java.io.File
import java.lang.management.ManagementFactory

import org.apache.spark.qr2bench.ListenerBusDrain
import org.apache.spark.sql.SparkSession
import qr2bench.Stats._
import repro.service.Algo

/** QR2 service benchmark.
  *
  * {{{
  * Main --workload <md-deep|spark-backend> --seed <n> --seconds <s> --trace <0|1> [--cores <n>]
  * Main --selftest
  * }}}
  *
  * Untraced runs (`--trace 0`) print the end-to-end metrics; traced runs
  * print the per-layer metrics, the self time of each traced layer, and
  * the tracing overhead. The last stdout line is the JSON result.
  */
object Main {

  /** Set-ups per run. The first also pays for Spark's first jobs and the
    * JIT; `setup_s` is the median of the others.
    */
  val SetupReps = 4
  /** Share of `--seconds` spent warming the JIT; the rest is the measured laps. */
  val WarmUpShare = 0.25
  /** Per-round-trip latency of the simulated web site (the paper's 33 s / 27 queries). */
  val SecondsPerRound = 1.2

  final case class Opts(
      workload: String = "",
      seed: Long = 1,
      seconds: Double = 10,
      trace: Boolean = false,
      cores: Int = math.min(Runtime.getRuntime.availableProcessors(), 4),
      selftest: Boolean = false,
  )

  def parse(args: List[String], o: Opts = Opts()): Opts = args match {
    case Nil                          => o
    case "--workload" :: v :: rest    => parse(rest, o.copy(workload = v))
    case "--seed" :: v :: rest        => parse(rest, o.copy(seed = v.toLong))
    case "--seconds" :: v :: rest     => parse(rest, o.copy(seconds = v.toDouble))
    case "--trace" :: v :: rest       => parse(rest, o.copy(trace = v == "1"))
    case "--cores" :: v :: rest       => parse(rest, o.copy(cores = v.toInt))
    case "--selftest" :: rest         => parse(rest, o.copy(selftest = true))
    case other :: _                   => throw new IllegalArgumentException(s"unknown argument $other")
  }

  def main(args: Array[String]): Unit = {
    val code =
      try run(parse(args.toList))
      catch {
        case e: Throwable =>
          Console.err.println(s"qr2bench: ${e.getClass.getName}: ${e.getMessage}")
          e.printStackTrace()
          1
      }
    sys.exit(code)
  }

  def session(cores: Int): SparkSession = {
    val s = SparkSession.builder
      .master(s"local[$cores]")
      .appName("qr2bench")
      // Pins spark.range's partition count, and with it the per-partition
      // rand() streams of WebData: the catalogue is the same on any machine.
      .config("spark.default.parallelism", "16")
      // Sized for the pinned parallelism instead of the default 200; only
      // sorts shuffle here (catalogue build, results table), and sorting
      // does not depend on the partition count.
      .config("spark.sql.shuffle.partitions", "16")
      .config("spark.ui.enabled", "false")
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  def run(o: Opts): Int = {
    val jvmStartMs = ManagementFactory.getRuntimeMXBean.getStartTime
    val wl         = if (o.selftest) null else Workload.byName(o.workload)
    val spark      = session(o.cores)
    try {
      if (o.selftest) return SelfTest.run(spark)
      val sparkReadyS = (System.currentTimeMillis() - jvmStartMs) / 1000.0
      val jobs        = new JobListener
      spark.sparkContext.addSparkListener(jobs)

      // Set-up: catalogues + backends, several times; the last one is kept.
      var cats: Map[String, Catalogue] = Map.empty
      val setupS = (1 to SetupReps).map { rep =>
        cats.values.foreach(_.release())
        val t0 = System.nanoTime()
        cats = wl.catalogues.map { case (n, sf) => n -> Catalogues.build(spark, n, sf, wl.sparkBackend) }.toMap
        (System.nanoTime() - t0) / 1e9
      }
      println(f"set-up: spark ready $sparkReadyS%.2f s, catalogues ${setupS.map(t => f"$t%.2f").mkString(" / ")} s")
      System.gc() // start every run's measured phase from the same heap state
      val failures = scala.collection.mutable.ArrayBuffer.empty[String]
      cats.values.foreach { c =>
        if (!c.fingerprintOk)
          failures += s"catalogue ${c.name} sf=${c.sf}: fingerprint ${c.fingerprint} != expected ${c.expected.getOrElse("(none recorded)")}"
        println(s"catalogue ${c.name} sf=${c.sf}: ${c.fingerprint} ${if (c.fingerprintOk) "ok" else "MISMATCH"}")
      }

      // Measured phase, after a short warm-up: whole laps while another one
      // fits in the rest of the time (at least one); a traced run alternates
      // untraced and traced laps and needs one of each.
      val runner = new Runner(spark, wl, o.seed, cats)
      runner.warmUp(System.nanoTime() + (o.seconds * WarmUpShare * 1e9).toLong)
      var lap    = 0
      def measuredS = runner.laps.map(_.wallNs).sum / 1e9
      def another   = lap == 0 || (o.trace && lap < 2) || measuredS * (lap + 1) / lap <= o.seconds * (1 - WarmUpShare)
      while (another) {
        runner.runLap(lap, traced = o.trace && lap % 2 == 1)
        lap += 1
      }
      System.gc()
      val heapMb = ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
      runner.liveServices = Nil
      ListenerBusDrain(spark.sparkContext)

      failures ++= runner.failures
      failures.foreach(f => println(s"FAILED: $f"))
      val attempted = runner.pages.size
      val failed    = runner.pages.count(_.failed)
      println(f"pages: $attempted%d attempted, $failed%d failed (failed_frac ${ratio(failed, attempted)}%.4f), laps: $lap%d")

      val metrics =
        if (!o.trace) endToEnd(runner, setupS, heapMb)
        else perLayer(runner, jobs)
      metrics.foreach(m => println(f"${m.name}%-32s ${m.value}%14.6f ${m.unit}"))
      if (o.trace) {
        val self = runner.tracer.selfNsByName
        val nT   = runner.laps.count(_.traced)
        println("self time per traced lap: " +
          Seq("page", "session", "request", "render").map(n => f"$n=${self.getOrElse(n, 0L) / 1e9 / nT}%.4f s").mkString(", "))
        val out = new File(s"perfbench/out/trace-${wl.name}-seed${o.seed}.csv")
        runner.tracer.write(out)
        println(s"trace: ${runner.tracer.spans.size} spans written to ${out.getPath}")
      }
      val pagesOut = new File(s"perfbench/out/pages-${wl.name}-seed${o.seed}-trace${if (o.trace) 1 else 0}.csv")
      runner.writePages(pagesOut)
      println(s"pages written to ${pagesOut.getPath}")
      println(resultLine(failures.isEmpty, attempted, failed, metrics))
      0
    } finally spark.stop()
  }

  private def endToEnd(r: Runner, setupS: Seq[Double], heapMb: Double): Seq[Metric] = {
    val pages = r.pages.toVector
    val first = pages.filter(_.lap == 0)
    val wallMs = pages.map(_.wallNs / 1e6)
    Seq(
      Metric("setup_s", setupS.drop(1).sorted.apply((SetupReps - 1) / 2), "s"),
      Metric("pages_per_s", pages.size / (r.laps.map(_.wallNs).sum / 1e9), "1/s"),
      Metric("page_ms_p50", quantile(wallMs, 0.5), "ms"),
      Metric("page_ms_p90", quantile(wallMs, 0.9), "ms"),
      Metric("queries_per_page", ratio(first.map(_.queries).sum, first.size), "queries/page"),
      Metric("sim_latency_p50_s", quantile(first.map(_.rounds * SecondsPerRound), 0.5), "s"),
      Metric("sim_latency_p90_s", quantile(first.map(_.rounds * SecondsPerRound), 0.9), "s"),
      Metric("heap_mb", heapMb, "MB"),
    )
  }

  private def perLayer(r: Runner, jobs: JobListener): Seq[Metric] = {
    val traced = r.pages.filter(_.traced).toVector
    val tLaps  = r.laps.filter(_.traced).toVector
    val nT     = tLaps.size.toDouble
    val l1     = tLaps.head
    val l1p    = traced.filter(_.lap == l1.lap)
    val selfMs = traced.map(_.selfNs / 1e6)
    def perAlgo(a: Algo): Double = {
      val ps = l1p.filter(_.algo == a)
      ratio(ps.map(_.queries).sum, ps.size)
    }
    def hMean(h: Int): Double = mean(traced.filter(_.h == h).map(_.selfNs / 1e6))
    val renders = traced.filter(_.renderNs > 0).map(_.renderNs / 1e6)
    val jobMs   = jobs.snapshot
    // Overhead: traced laps against the untraced laps they alternate with.
    val pairs   = r.laps.grouped(2).filter(_.size == 2).toVector
    val usePairs = if (pairs.size > 1) pairs.drop(1) else pairs
    val overhead = ratio(usePairs.map(_(1).wallNs).sum.toDouble, usePairs.map(_(0).wallNs).sum.toDouble)
    Seq(
      Metric("webdb.requests", l1.requests, "count"),
      Metric("webdb.request_ms_p50", quantile(r.requestNs.map(_ / 1e6).toSeq, 0.5), "ms"),
      Metric("webdb.request_ms_p90", quantile(r.requestNs.map(_ / 1e6).toSeq, 0.9), "ms"),
      Metric("webdb.busy_s", traced.map(_.backendNs).sum / 1e9 / nT, "s"),
      Metric("webdb.busy_share", ratio(traced.map(_.backendNs).sum.toDouble, traced.map(_.wallNs).sum.toDouble), "ratio"),
      Metric("webdb.rounds", l1.rounds, "count"),
      Metric("webdb.queries_per_round", ratio(l1.queries, l1.rounds), "queries/round"),
      Metric("webdb.parallel_query_frac", ratio(l1.parallelQueries, l1.queries), "ratio"),
      Metric("webdb.overflow_frac", ratio(l1.overflows, l1.requests), "ratio"),
      Metric("webdb.empty_frac", ratio(l1.empties, l1.requests), "ratio"),
      Metric("crawl.queries", l1.crawlQueries, "count"),
      Metric("crawl.share", ratio(l1.crawlQueries, l1.queries), "ratio"),
      Metric("crawl.tuples_per_query", ratio(l1.storeTuples, l1.storeCrawlQueries), "tuples/query"),
      Metric("core.self_ms_p50", quantile(selfMs, 0.5), "ms"),
      Metric("core.self_ms_p90", quantile(selfMs, 0.9), "ms"),
      Metric("core.self_s", traced.map(_.selfNs).sum / 1e9 / nT, "s"),
      Metric("core.self_ms_h10", hMean(10), "ms"),
      Metric("core.self_ms_h100", hMean(100), "ms"),
      Metric("core.baseline.queries_per_page", perAlgo(Algo.Baseline), "queries/page"),
      Metric("core.binary.queries_per_page", perAlgo(Algo.Binary), "queries/page"),
      Metric("core.rerank.queries_per_page", perAlgo(Algo.Rerank), "queries/page"),
      Metric("service.bootstrap_queries", l1.bootstrapQueries, "count"),
      Metric("service.bootstrap_s", tLaps.map(_.bootstrapNs).sum / 1e9 / nT, "s"),
      Metric("service.bootstrap_share", ratio(l1.bootstrapQueries, l1.queries), "ratio"),
      Metric("service.store_regions", l1.storeRegions, "count"),
      Metric("service.store_tuples", l1.storeTuples, "count"),
      Metric("rerank.render_ms_p50", median(renders), "ms"),
      Metric("spark.jobs", jobMs.size / nT, "count"),
      Metric("spark.jobs_per_round", ratio(jobMs.size / nT, l1.rounds.toDouble), "jobs/round"),
      Metric("spark.job_ms_p50", median(jobMs.map(_._2.toDouble)), "ms"),
      Metric("jvm.gc_s", tLaps.map(_.gcNs).sum / 1e9 / nT, "s"),
      Metric("jvm.cpu_s", tLaps.map(_.cpuNs).sum / 1e9 / nT, "s"),
      Metric("trace.overhead_ratio", overhead, "ratio"),
    )
  }
}
