package qr2bench

import java.io.{File, PrintWriter}
import java.lang.management.ManagementFactory

import org.apache.spark.sql.SparkSession
import repro.core.{LinearRanking, Normalizer}
import repro.service._
import repro.webdb.{DbStats, TopKResponse, WebQuery}
import repro.webdb.bench.RequestListener

import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** One page the client asked for. `h` is the result depth at its end;
  * `queries`/`rounds` are the billed requests it caused, session plus
  * service bootstrap. Backend and render times are known on traced laps only.
  */
final case class PageRec(
    lap: Int,
    traced: Boolean,
    session: Int,
    algo: Algo,
    h: Int,
    wallNs: Long,
    backendNs: Long,
    renderNs: Long,
    queries: Long,
    rounds: Long,
    failed: Boolean,
) {
  def selfNs: Long = wallNs - backendNs - renderNs
}

/** Totals of one lap. Accountant-derived counts are exact and repeat on
  * every lap; decorator counts (`requests`, `overflows`, `empties`) and the
  * JVM figures are filled on traced laps only.
  */
final case class LapRec(
    lap: Int,
    traced: Boolean,
    wallNs: Long,
    queries: Long,
    rounds: Long,
    parallelQueries: Long,
    crawlQueries: Long,
    storeCrawlQueries: Long,
    bootstrapQueries: Long,
    bootstrapNs: Long,
    storeRegions: Long,
    storeTuples: Long,
    requests: Long,
    overflows: Long,
    empties: Long,
    gcNs: Long,
    cpuNs: Long,
)

/** Drives one workload as a single closed-loop client: each session opens,
  * asks for its pages one after another (each waits for the previous one),
  * and every page is checked against brute-force ground truth.
  */
final class Runner(
    spark: SparkSession,
    wl: Workload,
    seed: Long,
    cats: Map[String, Catalogue],
) {
  val plan: Vector[SessionPlan] = wl.lap(seed)
  val pages    = mutable.ArrayBuffer.empty[PageRec]
  val laps     = mutable.ArrayBuffer.empty[LapRec]
  val failures = mutable.ArrayBuffer.empty[String]
  val tracer   = new Tracer
  val requestNs = mutable.ArrayBuffer.empty[Long]

  /** Services of the last lap, kept reachable until the heap is measured. */
  var liveServices: Seq[Qr2Service] = Nil

  private val truthCache = mutable.HashMap.empty[Int, Vector[Long]]
  private var session    = -1
  private var requests, overflows, empties, busyNs = 0L

  private val listener = new RequestListener {
    def onRequest(q: WebQuery, res: TopKResponse, t0: Long, t1: Long): Unit = {
      tracer.record("request", session, t0, t1)
      requests += 1
      if (res.overflow) overflows += 1
      if (res.isEmpty) empties += 1
      busyNs += t1 - t0
      requestNs += t1 - t0
    }
  }

  private val threads = ManagementFactory.getThreadMXBean
  private def gcNs: Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).filter(_ >= 0).sum * 1000000L

  /** Ids of the first `pages × 10` tuples under the plan's filter in
    * (score, id) order, scored with the data-true min-max normalizer.
    */
  private def truth(p: SessionPlan): Vector[Long] = {
    val cat = cats(p.catalogue)
    val f   = p.spec.toLinear
    val norm = p.spec match {
      case _: OneDRank => Normalizer.fromDomains(cat.schema, p.spec.attrs)
      case _: MDRank   => Normalizer.fromTuples(cat.ranked, p.spec.attrs)
    }
    Runner.topIds(cat.ranked.iterator.filter(p.base.matches), f, norm, p.pages * 10)
  }

  private def batchParallel(now: DbStats, prev: DbStats): Long =
    now.batchSizes.drop(prev.batchSizes.size).filter(_ > 1).map(_.toLong).sum

  /** JIT warm-up before anything is measured: the lap's sessions, in order
    * and round again, on throwaway services, until `deadlineNs` — checked at
    * every backend request, so one long page cannot overrun it. Nothing is
    * recorded, and the measured laps get services of their own, so counts
    * are unaffected.
    */
  def warmUp(deadlineNs: Long): Unit = {
    val stop = new RequestListener {
      def onRequest(q: WebQuery, res: TopKResponse, t0: Long, t1: Long): Unit =
        if (t1 > deadlineNs) throw Runner.WarmUpOver
    }
    cats.values.foreach(_.db.listener = stop)
    try {
      while (System.nanoTime() < deadlineNs) {
        val shared = mutable.HashMap.empty[String, Qr2Service]
        plan.foreach { p =>
          val db  = cats(p.catalogue).db
          val svc = shared.getOrElseUpdate(p.catalogue, new Qr2Service(db))
          try {
            val sess = svc.newSession(p.base, p.spec, p.algo)
            for (_ <- 1 to p.pages) {
              sess.getPage(10)
              if (wl.sparkBackend) sess.resultsAsDataFrame(spark).collect()
            }
          } catch { case e: Exception if e ne Runner.WarmUpOver => () } // the measured laps report it
        }
      }
    } catch {
      case Runner.WarmUpOver => ()
    } finally cats.values.foreach(_.db.listener = null)
  }

  def runLap(lap: Int, traced: Boolean): LapRec = {
    val l = if (traced) listener else null
    cats.values.foreach(_.db.listener = l)
    spark.sparkContext.setLocalProperty(JobListener.LapProp, if (traced) lap.toString else null)
    requests = 0; overflows = 0; empties = 0
    val gc0  = gcNs
    val cpu0 = threads.getCurrentThreadCpuTime

    val shared   = mutable.LinkedHashMap.empty[String, Qr2Service]
    var queries, rounds, parQ, crawlQ, storeCrawlQ, bootQ, bootNs, verifyNs = 0L
    val t0 = System.nanoTime()

    plan.zipWithIndex.foreach { case (p, si) =>
      val v0     = System.nanoTime()
      val expect = truthCache.getOrElseUpdate(si, truth(p))
      verifyNs += System.nanoTime() - v0
      val cat = cats(p.catalogue)
      val svc = shared.getOrElseUpdate(p.catalogue, new Qr2Service(cat.db))
      session = si
      var sess: Qr2Session = null
      var prevS            = DbStats.empty
      var pg               = 0
      var aborted          = false
      while (pg < p.pages && !aborted) {
        val prevSv   = svc.serviceAcc.snapshot
        val busy0    = busyNs
        var renderNs = 0L
        var ok       = true
        var got      = Vector.empty[Long]
        val pageSpan = if (traced) tracer.begin("page", si) else null
        val w0       = System.nanoTime()
        try {
          if (sess == null) {
            val span = if (traced) tracer.begin("session", si) else null
            val b0   = System.nanoTime()
            sess = svc.newSession(p.base, p.spec, p.algo)
            bootNs += System.nanoTime() - b0
            if (traced) tracer.end(span)
          }
          got = sess.getPage(10).map(_.id)
          if (wl.sparkBackend) {
            val span = if (traced) tracer.begin("render", si) else null
            val r0   = System.nanoTime()
            val ids  = sess.resultsAsDataFrame(spark).collect().map(_.getAs[Long](cat.schema.idCol)).toVector
            renderNs = System.nanoTime() - r0
            if (traced) tracer.end(span)
            if (ids != sess.seen.map(_.id)) {
              ok = false
              failures += s"${p.label} page ${pg + 1}: rendered table order differs from the session's results"
            }
          }
        } catch {
          case e: Exception =>
            ok = false
            aborted = true
            failures += s"${p.label} page ${pg + 1}: ${e.getClass.getSimpleName}: ${e.getMessage}"
        }
        val wall = System.nanoTime() - w0
        if (traced) tracer.end(pageSpan)

        val want = expect.slice(pg * 10, pg * 10 + 10)
        if (ok && got != want) {
          ok = false
          failures += s"${p.label} page ${pg + 1}: ids ${got.mkString(",")} != truth ${want.mkString(",")}"
        }
        val s  = if (sess != null) sess.stats else DbStats.empty
        val sv = svc.serviceAcc.snapshot
        val dq = (s.queries - prevS.queries) + (sv.queries - prevSv.queries)
        val dr = (s.rounds - prevS.rounds) + (sv.rounds - prevSv.rounds)
        queries += dq
        rounds += dr
        parQ += batchParallel(s, prevS) + batchParallel(sv, prevSv)
        crawlQ += (s.crawlQueries - prevS.crawlQueries) + (sv.crawlQueries - prevSv.crawlQueries)
        if (p.algo == Algo.Rerank) storeCrawlQ += s.crawlQueries - prevS.crawlQueries
        storeCrawlQ += sv.crawlQueries - prevSv.crawlQueries
        bootQ += sv.queries - prevSv.queries
        pages += PageRec(lap, traced, si, p.algo, (pg + 1) * 10, wall, busyNs - busy0, renderNs, dq, dr, !ok)
        prevS = s
        pg += 1
      }
    }

    val wall = System.nanoTime() - t0 - verifyNs
    cats.values.foreach(_.db.listener = null)
    spark.sparkContext.setLocalProperty(JobListener.LapProp, null)
    liveServices = shared.values.toSeq
    val rec = LapRec(
      lap, traced, wall, queries, rounds, parQ, crawlQ, storeCrawlQ, bootQ, bootNs,
      shared.values.map(_.store.size.toLong).sum, shared.values.map(_.store.indexedTupleCount).sum,
      requests, overflows, empties, gcNs - gc0, threads.getCurrentThreadCpuTime - cpu0)
    laps += rec
    if (traced && requests != queries)
      failures += s"lap $lap: backend saw $requests requests but accountants billed $queries (sessions + bootstrap)"
    rec
  }

  /** One row per page of every lap: the session's plan, depth, wall time,
    * billed queries and rounds, and whether it failed.
    */
  def writePages(path: File): Unit = {
    path.getParentFile.mkdirs()
    val w = new PrintWriter(path, "UTF-8")
    try {
      w.println("lap,traced,session,plan,h,wall_ms,backend_ms,render_ms,queries,rounds,failed")
      pages.foreach { r =>
        w.println(f"${r.lap},${r.traced},${r.session},\"${plan(r.session).label}\",${r.h},${r.wallNs / 1e6}%.3f," +
          f"${r.backendNs / 1e6}%.3f,${r.renderNs / 1e6}%.3f,${r.queries},${r.rounds},${r.failed}")
      }
    } finally w.close()
  }
}

object Runner {

  /** Ends the warm-up from inside a backend request. */
  case object WarmUpOver extends RuntimeException("warm-up over") with scala.util.control.NoStackTrace

  /** Ids of the `h` best tuples by (score, id) — a bounded selection, so a
    * 100 000-row catalogue costs one pass.
    */
  def topIds(ts: Iterator[repro.webdb.WebTuple], f: LinearRanking, norm: Normalizer, h: Int): Vector[Long] = {
    val ord  = Ordering.Tuple2(Ordering.Double.TotalOrdering, Ordering.Long)
    val heap = mutable.PriorityQueue.empty[(Double, Long)](ord) // max-heap: worst kept on top
    ts.foreach { t =>
      val c = (f.score(t, norm), t.id)
      if (heap.size < h) heap.enqueue(c)
      else if (ord.lt(c, heap.head)) { heap.dequeue(); heap.enqueue(c) }
    }
    heap.toVector.sorted(ord).map(_._2)
  }
}
