package qr2bench

import repro.service._
import repro.webdb.{WebData, WebQuery}

import scala.util.Random

/** One user session of a lap: the filter the user set, the ranking, the
  * strategy, and how many pages of 10 the user reads before leaving.
  */
final case class SessionPlan(
    catalogue: String,
    filterLabel: String,
    base: WebQuery,
    spec: RankSpec,
    algo: Algo,
    pages: Int,
) {
  def label: String = {
    val rank = spec match {
      case OneDRank(a, asc) => s"$a ${if (asc) "asc" else "desc"}"
      case MDRank(ws)       => ws.map { case (a, w) => f"$w%+.2f*$a" }.mkString(" ")
    }
    s"$catalogue[$filterLabel] $rank ${algo.toString.toUpperCase} x$pages"
  }
}

/** A workload: which catalogues back the service and the lap of sessions a
  * seed draws. The sessions of a lap share one service per catalogue, as
  * the users of a running service do. A run repeats its lap (on fresh
  * services) while another lap fits in the measured time, so count metrics
  * are those of one lap and do not depend on machine speed.
  */
sealed trait Workload {
  def name: String
  def catalogues: Seq[(String, Double)]
  /** Serve from a `SparkWebDb` and render the results table after every
    * page (the UI's result grid); otherwise serve from a `LocalWebDb`.
    */
  def sparkBackend: Boolean = false
  def lap(seed: Long): Vector[SessionPlan]
}

object Workload {
  val all: Seq[Workload] = Seq(MdDeep, SparkBackend)

  def byName(n: String): Workload =
    all.find(_.name == n).getOrElse(
      throw new IllegalArgumentException(s"unknown workload $n (known: ${all.map(_.name).mkString(", ")})"))

  private val cats = Map(
    "diamonds" -> WebData.diamondSchema.catDomains,
    "houses"   -> WebData.houseSchema.catDomains,
  )

  /** The lap's random stream. The seed is mixed first: `java.util.Random`
    * gives nearly the same first draws for nearby seeds such as 1, 2, 3.
    */
  def random(seed: Long): Random = new Random(new java.util.SplittableRandom(seed).nextLong())

  /** One uniformly drawn value of `facet` (all facets are uniform, so the
    * filter's selectivity does not depend on the draw); "" means no filter.
    */
  def facetFilter(rnd: Random, catalogue: String, facet: String): (String, WebQuery) =
    if (facet.isEmpty) ("all", WebQuery.all)
    else {
      val vs = cats(catalogue)(facet)
      val v  = vs(rnd.nextInt(vs.size))
      (s"$facet=$v", WebQuery.all.andCat(facet, Set(v)))
    }

  /** Slider weights: the first stays as given, the others move by up to
    * ±10 % and snap to the slider's 0.01 steps.
    */
  def jitter(rnd: Random, ws: Seq[(String, Double)]): Seq[(String, Double)] =
    ws.head +: ws.tail.map { case (a, w) => a -> math.round(w * (0.9 + 0.2 * rnd.nextDouble()) * 100) / 100.0 }
}

/** Deep MD paging on the local backend: every session reads 10 pages
  * (h = 100), so the B&B core and the backend scans carry the work. The lap
  * is every (shape × strategy) pair once; the seed draws the filter value
  * and jitters the slider weights, so laps of different seeds load the same
  * layers by similar amounts.
  */
object MdDeep extends Workload {
  val name       = "md-deep"
  val catalogues = Seq("diamonds" -> 0.1, "houses" -> 0.1)

  /** (catalogue, base weights, facet the filter is drawn from or "" for none). */
  private val shapes: Seq[(String, Seq[(String, Double)], String)] = Seq(
    ("diamonds", Seq("price" -> 1.0, "carat" -> 0.3), ""),
    ("diamonds", Seq("price" -> 1.0, "depth" -> -0.3), "shape"),
    ("diamonds", Seq("price" -> 1.0, "depth" -> -0.3, "table_pct" -> -0.3), ""),
    ("houses", Seq("price" -> 1.0, "sqft" -> 0.3), "city"),
  )
  private val algos = Seq(Algo.Baseline, Algo.Binary, Algo.Rerank)

  def lap(seed: Long): Vector[SessionPlan] = {
    val rnd = Workload.random(seed)
    for ((cat, ws, facet) <- shapes.toVector; algo <- algos) yield {
      val (fl, base) = Workload.facetFilter(rnd, cat, facet)
      SessionPlan(cat, fl, base, MDRank(Workload.jitter(rnd, ws)), algo, pages = 10)
    }
  }
}

/** The Catalyst backend: every request is a Spark job over the cached
  * houses table, and every page renders the re-ranked results table. The
  * sessions share one service.
  */
object SparkBackend extends Workload {
  val name                  = "spark-backend"
  val catalogues            = Seq("houses" -> 0.01)
  override val sparkBackend = true

  private val table2 = Seq("price" -> 1.0, "sqft" -> -0.3)

  /** Two sessions of 6 pages. The first is Table 2's function under
    * RERANK, filtered to one fixed city (unfiltered, its first page costs
    * 130 requests instead of 90, and a traced run of two laps would near
    * the run time limit on a loaded machine), the same for every seed; the
    * second is BINARY on a positively correlated function with jittered
    * weights, under a city the seed draws. A first page costs 20–90
    * requests and most later ones 2–10, so the median is taken among the 10
    * later pages and the p90 among the first ones.
    */
  def lap(seed: Long): Vector[SessionPlan] = {
    val rnd        = Workload.random(seed)
    val positive   = Workload.jitter(rnd, Seq("price" -> 1.0, "sqft" -> 0.5))
    val (fl, base) = Workload.facetFilter(rnd, "houses", "city")
    Vector(
      SessionPlan("houses", "city=Dallas", WebQuery.all.andCat("city", Set("Dallas")), MDRank(table2), Algo.Rerank, pages = 6),
      SessionPlan("houses", fl, base, MDRank(positive), Algo.Binary, pages = 6),
    )
  }
}
