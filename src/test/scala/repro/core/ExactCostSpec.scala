package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.service.DenseRegionStore
import repro.webdb._

/** Exact paper cost (queries, rounds, crawl queries) of the get-next
  * strategies on a small catalogue generated here from a fixed
  * `java.util.Random` seed, so the numbers depend neither on Spark nor on
  * the core count. A refactor of the strategies must keep them identical.
  *
  * The catalogue is built so every crawl path runs: more than k tuples
  * share `w = 1` (the point-group crawl of 1D), twelve of them are also
  * identical on `(x, w)` (MD-BASELINE/BINARY crawl at machine resolution),
  * thirty more sit in a corner narrower than MD-RERANK's dense width, and a
  * band of forty distinct `w` values is ranked by the hidden score against
  * `w` (1D-RERANK's dense-interval crawl).
  */
class ExactCostSpec extends AnyFunSuite {

  private val schema = WebSchema(
    name = "spiky",
    idCol = "id",
    numeric = Seq("x", "y", "w"),
    categorical = Seq("c"),
    numDomains = Map(
      "x" -> Interval(0.0, 100.0),
      "y" -> Interval(0.0, 100.0),
      "w" -> Interval(1.0, 2.5),
    ),
    catDomains = Map("c" -> Seq("a", "b", "c", "d")),
  )

  private val db: LocalWebDb = {
    val r = new java.util.Random(20180416L)
    def u(lo: Double, hi: Double): Double = lo + r.nextDouble() * (hi - lo)
    val background = Vector.fill(1500)((u(0, 100), u(0, 100), u(1.2, 2.5)))
    val spike      = Vector.fill(40)((u(0, 100), u(0, 100), 1.0))
    val twins      = Vector.fill(12)((1.5, u(0, 100), 1.0))
    val corner     = Vector.fill(30)((u(2.0, 2.3), u(0, 100), 1.0))
    val band       = (1 to 40).map(i => (100.0 - i, u(0, 100), 1.1 + i * 1e-5))
    val ranked = (background ++ spike ++ twins ++ corner ++ band).zipWithIndex
      .map { case ((x, y, w), i) =>
        val t = WebTuple(i + 1L, Map("x" -> x, "y" -> y, "w" -> w),
          Map("c" -> schema.catDomains("c")(r.nextInt(4))))
        (x * u(0.95, 1.05), t) // hidden system score: noisy x ascending
      }
      .sortBy { case (s, t) => (s, t.id) }
      .map(_._2)
    new LocalWebDb(ranked, schema, k = 10)
  }

  private val f    = LinearRanking(Seq("x" -> 1.0, "w" -> 1.0))
  private val norm = Normalizer.fromDomains(schema, f.attrs)

  private def truth(f: LinearRanking, n: Int): Vector[Long] =
    db.allTuples.sortBy(t => (f.score(t, norm), t.id)).take(n).map(_.id)

  /** Run `n` get-nexts on a fresh connection; check the output order and
    * return (queries, rounds, crawl queries).
    */
  private def cost(n: Int, want: Vector[Long])(mk: WebDbConn => GetNexter): (Long, Long, Long) = {
    val conn = new WebDbConn(db)
    assert(mk(conn).next(n).map(_.id) == want)
    (conn.acc.queries, conn.acc.rounds, conn.acc.crawlQueries)
  }

  test("MD BASELINE, BINARY and RERANK page costs are pinned") {
    val want = truth(f, 10)
    assert(cost(10, want)(new MDBaseline(_, WebQuery.all, f, norm)) == ((47, 25, 2)))
    assert(cost(10, want)(new MDBinary(_, WebQuery.all, f, norm)) == ((51, 42, 2)))
    assert(cost(10, want)(new MDRerank(_, WebQuery.all, f, norm, new DenseRegionStore)) == ((18, 16, 2)))
  }

  test("a second MD-RERANK session over the same store has pinned cost") {
    val want  = truth(f, 10)
    val store = new DenseRegionStore
    assert(cost(10, want)(new MDRerank(_, WebQuery.all, f, norm, store)) == ((18, 16, 2)))
    assert(store.size == 1)
    assert(cost(10, want)(new MDRerank(_, WebQuery.all, f, norm, store)) == ((15, 14, 0)))
  }

  test("1D RERANK over the spike has pinned cost") {
    val store = new DenseRegionStore
    val got = cost(110, truth(LinearRanking.oneD("w", asc = true), 110))(
      new OneDRerank(_, WebQuery.all, "w", asc = true, store))
    assert(got == ((106, 82, 35)))
    assert(store.size == 4, "the w = 1 group and three dense stretches of the band are indexed")
  }
}
