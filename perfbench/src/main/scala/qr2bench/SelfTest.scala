package qr2bench

import org.apache.spark.sql.SparkSession
import repro.service._
import repro.webdb.WebQuery

/** Known-answer test: on the pinned catalogues the benchmark's Spark set-up
  * must reproduce two recorded cells of EXPERIMENTS.md exactly —
  * Table 6 "worst 1D" (lwr asc, diamonds SF 0.05: 693 queries, 680 crawl)
  * and Table 2 on the Spark backend (price − 0.3·sqft, houses SF 0.01:
  * 101 queries, 28 rounds).
  */
object SelfTest {

  def run(spark: SparkSession): Int = {
    val diamonds = Catalogues.build(spark, "diamonds", 0.05, sparkBackend = false)
    val t6 = new Qr2Service(diamonds.db).newSession(WebQuery.all, OneDRank("lwr", asc = true), Algo.Rerank)
    t6.getPage(10)
    val houses = Catalogues.build(spark, "houses", 0.01, sparkBackend = true)
    val t2 = new Qr2Service(houses.db)
      .newSession(WebQuery.all, MDRank(Seq("price" -> 1.0, "sqft" -> -0.3)), Algo.Rerank)
    t2.getPage(10)
    val checks = Seq(
      ("Table 6 worst 1D queries", t6.stats.queries, 693L),
      ("Table 6 worst 1D crawl queries", t6.stats.crawlQueries, 680L),
      ("Table 2 spark queries", t2.stats.queries, 101L),
      ("Table 2 spark rounds", t2.stats.rounds, 28L),
    )
    checks.foreach { case (n, got, want) =>
      println(s"selftest $n: $got (recorded $want) ${if (got == want) "ok" else "MISMATCH"}")
    }
    val pinned = Seq(diamonds, houses).map { c =>
      println(s"selftest catalogue ${c.name} sf=${c.sf}: ${c.fingerprint} ${if (c.fingerprintOk) "ok" else "MISMATCH"}")
      c.fingerprintOk
    }
    if (checks.forall(c => c._2 == c._3) && pinned.forall(identity)) 0 else 1
  }
}
