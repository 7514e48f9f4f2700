package repro.service

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types._
import repro.crawl.Crawler
import repro.webdb.{Box, Interval, WebDbConn, WebQuery, WebSchema, WebTuple}

import scala.collection.mutable

/** Shared index of fully-crawled dense regions — QR2's "MySQL" cache
  * (§II-B, "Managing the dense region cache"), substituted here by an
  * in-memory store with Parquet persist/load (DESIGN.md §5).
  *
  * An entry records an axis-aligned region (a [[Box]] over a subset of the
  * numeric attributes) together with **every** tuple of the database inside
  * it — regions are crawled *unconditioned* on any user filter precisely so
  * the index is reusable across sessions and users. Lookups:
  *
  *  - `lookupBox` — a region containing the probe box yields the box's
  *    content locally, at zero web-database cost;
  *  - `coverageFrom` — for the 1D strategies: how far beyond a frontier key
  *    is the axis contiguously covered by indexed regions, and which
  *    indexed tuples live there.
  *
  * The store is shared between all sessions of a [[Qr2Service]]; methods
  * are synchronized (QR2 is a multi-user service).
  */
final class DenseRegionStore {

  /** A fully-crawled region and its complete tuple content. */
  final case class Entry(box: Box, tuples: Vector[WebTuple])

  private val entries = mutable.Buffer.empty[Entry]

  def size: Int = synchronized(entries.size)

  def indexedTupleCount: Long = synchronized(entries.map(_.tuples.size.toLong).sum)

  def allEntries: Vector[Entry] = synchronized(entries.toVector)

  /** Register a crawled region. */
  def add(box: Box, tuples: Seq[WebTuple]): Unit = synchronized {
    entries += Entry(box, tuples.toVector)
  }

  /** Atomically replace the whole store content (boot-time verification). */
  def replaceAll(fresh: Seq[(Box, Seq[WebTuple])]): Unit = synchronized {
    entries.clear()
    fresh.foreach { case (b, ts) => entries += Entry(b, ts.toVector) }
  }

  /** Crawl `box` without any user filter, index it for every session, and
    * return its complete content. Only the insertion takes the store's lock.
    */
  def crawlAndIndex(conn: WebDbConn, box: Box): Vector[WebTuple] = {
    val ts = Crawler.crawlQuery(conn, box.toQuery(WebQuery.all))
    add(box, ts)
    ts
  }

  /** The indexed tuples inside `box`, if a stored region contains it. */
  def lookupBox(box: Box): Option[Vector[WebTuple]] = synchronized {
    entries.find(e => box.containedIn(e.box)).map(_.tuples.filter(box.contains))
  }

  /** 1D coverage query in key space. Looks for a stored single-attribute
    * region on `attr` whose key interval covers the open neighbourhood just
    * above `fromKeyExcl`; returns the key up to which the axis is covered
    * (inclusive iff the region's corresponding bound is) and the region's
    * tuples. The caller may answer from the tuples or skip `lo` past the
    * covered stretch.
    */
  def coverageFrom(attr: String, asc: Boolean, fromKeyExcl: Double): Option[(Double, Boolean, Vector[WebTuple])] =
    synchronized {
      val hits = entries.iterator.flatMap { e =>
        e.box.dims.get(attr) match {
          case Some(iv) if e.box.dims.size == 1 =>
            val kIv = if (asc) iv else Interval(-iv.hi, -iv.lo, iv.hiIncl, iv.loIncl)
            // Covers (fromKeyExcl, …] iff its lower bound does not exceed the
            // frontier AND it extends strictly beyond it — an entry ending at
            // the frontier covers nothing new (and would stall the caller's
            // skip-ahead loop).
            if (kIv.lo <= fromKeyExcl && kIv.hi > fromKeyExcl)
              Some((kIv.hi, kIv.hiIncl, e.tuples))
            else None
          case _ => None
        }
      }.toVector
      // Furthest-reaching cover wins (amortizes best).
      if (hits.isEmpty) None else Some(hits.maxBy(h => (h._1, h._2)))
    }

  // ---------------------------------------------------------------------
  // Persistence — stands in for the MySQL cache that survives restarts
  // ("before the system boots up we verify the cache", §II-B).
  // ---------------------------------------------------------------------

  /** Persist the store as two Parquet datasets under `path`. */
  def persist(spark: SparkSession, schema: WebSchema, path: String): Unit = synchronized {
    val regionRows = entries.toVector.zipWithIndex.flatMap { case (e, i) =>
      e.box.dims.toSeq.map { case (a, iv) =>
        Row(i, a, iv.lo, iv.hi, iv.loIncl, iv.hiIncl)
      }
    }
    val regionSchema = StructType(Seq(
      StructField("region", IntegerType, nullable = false),
      StructField("attr", StringType, nullable = false),
      StructField("lo", DoubleType, nullable = false),
      StructField("hi", DoubleType, nullable = false),
      StructField("lo_incl", BooleanType, nullable = false),
      StructField("hi_incl", BooleanType, nullable = false),
    ))
    val tupleRows = entries.toVector.zipWithIndex.flatMap { case (e, i) =>
      e.tuples.map { t =>
        // Seq[Any] prevents Int→Long numeric widening of the region id.
        Row.fromSeq(
          Seq[Any](i, t.id) ++ schema.numeric.map(t.num) ++ schema.categorical.map(t.cat))
      }
    }
    val tupleSchema = StructType(
      Seq(
        StructField("region", IntegerType, nullable = false),
        StructField("id", LongType, nullable = false),
      ) ++ schema.numeric.map(StructField(_, DoubleType, nullable = false))
        ++ schema.categorical.map(StructField(_, StringType, nullable = false)))
    spark.createDataFrame(spark.sparkContext.parallelize(regionRows, 1), regionSchema)
      .write.mode("overwrite").parquet(s"$path/regions")
    spark.createDataFrame(spark.sparkContext.parallelize(tupleRows, 1), tupleSchema)
      .write.mode("overwrite").parquet(s"$path/tuples")
  }

  /** The indexed tuples as a DataFrame (for result-set reranking demos). */
  def toDataFrame(spark: SparkSession, schema: WebSchema): DataFrame = synchronized {
    val rows = entries.toVector.flatMap(_.tuples).distinct.map { t =>
      Row.fromSeq(Seq(t.id) ++ schema.numeric.map(t.num) ++ schema.categorical.map(t.cat))
    }
    val st = StructType(
      Seq(StructField("id", LongType, nullable = false))
        ++ schema.numeric.map(StructField(_, DoubleType, nullable = false))
        ++ schema.categorical.map(StructField(_, StringType, nullable = false)))
    spark.createDataFrame(spark.sparkContext.parallelize(rows, 1), st)
  }
}

object DenseRegionStore {

  /** Load a store previously written by [[DenseRegionStore.persist]]. */
  def load(spark: SparkSession, schema: WebSchema, path: String): DenseRegionStore = {
    val store   = new DenseRegionStore
    val regions = spark.read.parquet(s"$path/regions").collect()
    val tuples  = spark.read.parquet(s"$path/tuples").collect()
    val boxes = regions.groupBy(_.getAs[Int]("region")).map { case (rid, rows) =>
      rid -> Box(rows.map { r =>
        r.getAs[String]("attr") -> Interval(
          r.getAs[Double]("lo"), r.getAs[Double]("hi"),
          r.getAs[Boolean]("lo_incl"), r.getAs[Boolean]("hi_incl"))
      }.toMap)
    }
    val byRegion = tuples.groupBy(_.getAs[Int]("region"))
    boxes.toSeq.sortBy(_._1).foreach { case (rid, box) =>
      val ts = byRegion.getOrElse(rid, Array.empty[Row]).toVector.map { r =>
        WebTuple(
          r.getAs[Long]("id"),
          schema.numeric.map(a => a -> r.getAs[Double](a)).toMap,
          schema.categorical.map(a => a -> r.getAs[String](a)).toMap)
      }
      store.add(box, ts.sortBy(_.id))
    }
    store
  }
}
