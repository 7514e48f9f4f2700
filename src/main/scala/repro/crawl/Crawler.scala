package repro.crawl

import repro.webdb._

import scala.collection.mutable

/** Hidden-database crawler — reimplementation of the technique of
  * Sheng et al., "Optimal algorithms for crawling a hidden database in the
  * web" (VLDB 2012), reference [8] of the QR2 paper.
  *
  * Given a conjunctive query whose answer overflows the top-k interface,
  * the crawler retrieves *every* matching tuple by recursively partitioning
  * the query region on the attributes of the public interface until no
  * sub-query overflows:
  *
  *  1. split the widest (domain-normalized) numeric interval at its
  *     midpoint;
  *  2. when every numeric constraint has collapsed to a point, partition a
  *     categorical attribute's value set in half;
  *  3. when every attribute is fully pinned and the query still overflows,
  *     the database holds more than k fully-identical tuples and crawling
  *     is impossible through the public interface — the simulator's
  *     generators guarantee this never happens.
  *
  * QR2 invokes the crawler for (a) the *general positioning* fix — more
  * than system-k tuples sharing one attribute value — and (b) dense-region
  * indexing in the RERANK algorithms. Sub-queries of one level are
  * independent, so the crawler issues them in parallel rounds (at most
  * [[WebDbConn.MaxPar]] wide), contributing to the parallel-iteration
  * counts of Fig 2.
  */
object Crawler {

  /** Retrieve every tuple matching `q`. Queries are tagged as crawl
    * traffic in the connection's accountant.
    *
    * @throws IllegalStateException if the region cannot be partitioned
    *         further yet still overflows (more than k identical tuples).
    */
  def crawlQuery(conn: WebDbConn, q: WebQuery): Vector[WebTuple] = {
    val schema = conn.schema
    val out    = mutable.LinkedHashMap.empty[Long, WebTuple]
    var level  = Vector(q)
    while (level.nonEmpty) {
      val next = mutable.Buffer.empty[WebQuery]
      level.grouped(WebDbConn.MaxPar).foreach { round =>
        val responses = conn.batch(round, crawl = true)
        round.lazyZip(responses).foreach { (sub, res) =>
          res.tuples.foreach(t => out.update(t.id, t))
          if (res.overflow) next ++= partition(schema, sub)
        }
      }
      level = next.toVector
    }
    out.values.toVector
  }

  /** Split an overflowing query into two disjoint sub-queries covering it. */
  private def partition(schema: WebSchema, q: WebQuery): Seq[WebQuery] = {
    // Widest splittable numeric attribute, width measured relative to the
    // advertised domain so heterogeneous scales compare fairly.
    val numeric = schema.numeric
      .map { a =>
        val iv = q.num.getOrElse(a, schema.numDomains(a))
        val dw = math.max(schema.numDomains(a).width, 1e-12)
        (a, iv, iv.width / dw)
      }
      .filter { case (_, iv, _) => iv.width > 0 }
    if (numeric.nonEmpty) {
      val (a, iv, _) = numeric.maxBy(_._3)
      val m          = iv.mid
      return Seq(
        q.and(a, iv.copy(hi = m, hiIncl = true)),
        q.and(a, iv.copy(lo = m, loIncl = false)),
      )
    }
    // All numeric constraints are points — partition a categorical facet.
    val cats = schema.categorical
      .map(a => a -> q.cat.getOrElse(a, schema.catDomains(a).toSet))
      .filter(_._2.size > 1)
    cats.headOption match {
      case Some((a, vs)) =>
        val sorted       = vs.toSeq.sorted
        val (lhs, rhs)   = sorted.splitAt(sorted.size / 2)
        Seq(q.andCat(a, lhs.toSet), q.andCat(a, rhs.toSet))
      case None =>
        throw new IllegalStateException(
          s"cannot crawl: query fully pinned but still overflows (>k identical tuples): $q")
    }
  }
}
