package repro.webdb.bench

import repro.webdb.{TopKResponse, WebDb, WebQuery, WebSchema}

/** Receives one event per request the decorated database answers. */
trait RequestListener {
  def onRequest(q: WebQuery, res: TopKResponse, startNs: Long, endNs: Long): Unit
}

/** Timing decorator around a [[WebDb]]: every `rawTopK` the service sends
  * reaches the wrapped database unchanged, and — while a listener is set —
  * its start/end time and response shape are reported. With no listener the
  * decorator only adds one null check per request, so untraced runs time
  * the program as it is.
  *
  * It lives in a subpackage of `repro.webdb` because `rawTopK` is
  * `private[webdb]`: the benchmark observes the backend from outside the
  * program, through the same interface the service uses.
  */
final class TimedWebDb(val inner: WebDb) extends WebDb {
  def schema: WebSchema = inner.schema
  def k: Int            = inner.k

  @volatile var listener: RequestListener = null

  private[webdb] def rawTopK(q: WebQuery): TopKResponse = {
    val l = listener
    if (l == null) inner.rawTopK(q)
    else {
      val t0  = System.nanoTime()
      val res = inner.rawTopK(q)
      l.onRequest(q, res, t0, System.nanoTime())
      res
    }
  }
}
