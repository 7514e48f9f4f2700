package qr2bench

import java.nio.ByteBuffer
import java.nio.charset.StandardCharsets
import java.security.MessageDigest

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import repro.webdb._
import repro.webdb.bench.TimedWebDb

/** Row count + SHA-256 over every public value, in hidden-rank order. */
final case class Fingerprint(rows: Long, sha256: String) {
  override def toString: String = s"$rows rows, sha256 $sha256"
}

/** One generated catalogue behind one backend, plus its rank-ordered content
  * (used only for the fingerprint and for brute-force ground truth).
  */
final case class Catalogue(
    name: String,
    sf: Double,
    db: TimedWebDb,
    ranked: Vector[WebTuple],
    fingerprint: Fingerprint,
    release: () => Unit,
) {
  def schema: WebSchema = db.schema
  def expected: Option[Fingerprint] = Catalogues.Expected.get((name, sf))
  def fingerprintOk: Boolean = expected.contains(fingerprint)
}

object Catalogues {

  /** Fingerprints of the pinned catalogues (`spark.default.parallelism`
    * = 16, generator seeds of `WebData`). A mismatch means the benchmark
    * would measure other data than the recorded numbers did.
    */
  val Expected: Map[(String, Double), Fingerprint] = Map(
    ("diamonds", 0.05) -> Fingerprint(10000, "415955059a63c0ef59c06a781cbef8b72895d50425a559c257c6ed9a724726df"),
    ("diamonds", 0.1)  -> Fingerprint(20000, "af52d2a2f5c96eb4eda818a794a183b0ee8f2570df4c64127a09022f3c492503"),
    ("houses", 0.01)   -> Fingerprint(10000, "7df9afab3d469925cf4ec9b873be5b041d46dbd33e3efac9f5dc6c02709c0450"),
    ("houses", 0.1)    -> Fingerprint(100000, "609227d283221b9f1c2a1988912bb8cba2ba551b98d2597a0a966f36d7649035"),
  )

  def fingerprint(schema: WebSchema, ranked: Seq[WebTuple]): Fingerprint = {
    val md  = MessageDigest.getInstance("SHA-256")
    val buf = ByteBuffer.allocate(8)
    def long(v: Long): Unit = { buf.clear(); buf.putLong(v); md.update(buf.array()) }
    ranked.foreach { t =>
      long(t.id)
      schema.numeric.foreach(a => long(java.lang.Double.doubleToLongBits(t.num(a))))
      schema.categorical.foreach(a => md.update(t.cat(a).getBytes(StandardCharsets.UTF_8)))
    }
    Fingerprint(ranked.size.toLong, md.digest().map("%02x".format(_)).mkString)
  }

  private def generate(spark: SparkSession, name: String, sf: Double): (DataFrame, WebSchema) =
    name match {
      case "diamonds" => (WebData.diamonds(spark, sf), WebData.diamondSchema)
      case "houses"   => (WebData.houses(spark, sf), WebData.houseSchema)
      case other      => throw new IllegalArgumentException(s"unknown catalogue $other")
    }

  /** Generate `name` at scale `sf` and build its backend: the driver-side
    * `LocalWebDb` (collect + sort), or a `SparkWebDb` whose cached table is
    * materialized here so its first request does not pay for the cache.
    */
  def build(spark: SparkSession, name: String, sf: Double, sparkBackend: Boolean, k: Int = 10): Catalogue = {
    val (df, schema) = generate(spark, name, sf)
    if (!sparkBackend) {
      val local = LocalWebDb.fromDataFrame(df, schema, k)
      Catalogue(name, sf, new TimedWebDb(local), local.allTuples, fingerprint(schema, local.allTuples), () => ())
    } else {
      val cached = df.cache()
      val ranked = cached
        .orderBy(col(WebData.SysScoreCol).asc, col(schema.idCol).asc)
        .collect()
        .toVector
        .map(r => SparkWebDb.rowToTuple(r, schema))
      val db = new TimedWebDb(new SparkWebDb(cached, schema, k))
      Catalogue(name, sf, db, ranked, fingerprint(schema, ranked), () => { cached.unpersist(true); () })
    }
  }
}
