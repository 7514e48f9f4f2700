package qr2bench

import java.io.{File, PrintWriter}

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart}

import scala.collection.mutable

/** One traced interval at a layer boundary. `parent` is -1 for a root. */
final case class Span(id: Int, parent: Int, name: String, session: Int, startNs: Long, var endNs: Long = -1L) {
  def durNs: Long = endNs - startNs
}

/** In-memory span recorder: spans `page`, `session` (newSession),
  * `request` (rawTopK) and `render`, each tagged with its session and its
  * parent span. Nothing is written until [[write]] at exit.
  */
final class Tracer {
  val spans = mutable.ArrayBuffer.empty[Span]
  private var open: List[Span] = Nil

  def current: Int = open.headOption.map(_.id).getOrElse(-1)

  def begin(name: String, session: Int): Span = {
    val s = Span(spans.size, current, name, session, System.nanoTime())
    spans += s
    open = s :: open
    s
  }

  def end(s: Span): Unit = {
    s.endNs = System.nanoTime()
    open = open.dropWhile(_.id != s.id).drop(1)
  }

  /** A closed child span of the innermost open span (requests). */
  def record(name: String, session: Int, startNs: Long, endNs: Long): Unit =
    spans += Span(spans.size, current, name, session, startNs, endNs)

  /** Self time per span name: duration minus the time its direct children cover. */
  def selfNsByName: Map[String, Long] = {
    val childNs = new Array[Long](spans.size)
    spans.foreach(s => if (s.parent >= 0) childNs(s.parent) += s.durNs)
    spans.groupMapReduce(_.name)(s => s.durNs - childNs(s.id))(_ + _)
  }

  def write(path: File): Unit = {
    path.getParentFile.mkdirs()
    val w = new PrintWriter(path, "UTF-8")
    try {
      w.println("id,parent,name,session,start_us,dur_us")
      val t0 = spans.headOption.map(_.startNs).getOrElse(0L)
      spans.foreach(s =>
        w.println(s"${s.id},${s.parent},${s.name},${s.session},${(s.startNs - t0) / 1000},${s.durNs / 1000}"))
    } finally w.close()
  }
}

/** Spark jobs submitted while the driver thread carries the local property
  * [[JobListener.LapProp]]: count and duration, keyed by lap.
  */
final class JobListener extends SparkListener {
  private val started = mutable.HashMap.empty[Int, (Int, Long)] // job id -> (lap, start ms)
  val jobMs           = mutable.ArrayBuffer.empty[(Int, Long)]  // (lap, duration ms)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    Option(e.properties).flatMap(p => Option(p.getProperty(JobListener.LapProp))).foreach { lap =>
      started(e.jobId) = (lap.toInt, e.time)
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    started.remove(e.jobId).foreach { case (lap, t0) => jobMs += ((lap, e.time - t0)) }
  }

  def snapshot: Vector[(Int, Long)] = synchronized(jobMs.toVector)
}

object JobListener {
  val LapProp = "qr2bench.lap"
}
