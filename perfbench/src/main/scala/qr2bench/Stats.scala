package qr2bench

import org.apache.commons.math3.special.Beta

/** Small statistics and JSON helpers. */
object Stats {

  /** Harrell–Davis quantile estimate: a Beta-weighted mean of all order
    * statistics. Unlike the sample quantile it moves smoothly with the data,
    * which steadies small samples (a lap of a few Spark pages) and integer
    * ones (rounds per page). Above [[HdMaxN]] samples it equals the sample
    * quantile to within noise, and linear interpolation is used instead.
    * 0 for no samples.
    */
  def quantile(xs: Seq[Double], p: Double): Double = {
    val s = xs.sorted.toArray
    val n = s.length
    if (n == 0) 0.0
    else if (n == 1) s(0)
    else if (n > HdMaxN) {
      val pos = p * (n - 1)
      val lo  = math.floor(pos).toInt
      val hi  = math.min(lo + 1, n - 1)
      s(lo) + (s(hi) - s(lo)) * (pos - lo)
    } else {
      val a = p * (n + 1)
      val b = (1 - p) * (n + 1)
      var prev = 0.0
      var acc  = 0.0
      for (i <- 1 to n) {
        val cdf = if (i == n) 1.0 else Beta.regularizedBeta(i.toDouble / n, a, b)
        acc += (cdf - prev) * s(i - 1)
        prev = cdf
      }
      acc
    }
  }

  val HdMaxN = 5000

  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size

  def ratio(a: Double, b: Double): Double = if (b == 0) 0.0 else a / b
  def ratio(a: Long, b: Long): Double     = ratio(a.toDouble, b.toDouble)

  final case class Metric(name: String, value: Double, unit: String)
  object Metric {
    def apply(name: String, value: Long, unit: String): Metric = Metric(name, value.toDouble, unit)
  }

  def jsonString(s: String): String =
    "\"" + s.flatMap {
      case '"'            => "\\\""
      case '\\'           => "\\\\"
      case c if c < ' '   => f"\\u${c.toInt}%04x"
      case c              => c.toString
    } + "\""

  def jsonNumber(v: Double): String =
    if (v.isNaN || v.isInfinite) "0" else if (v.isWhole && math.abs(v) < 1e15) v.toLong.toString else v.toString

  /** The result line: `{"correct", "attempted", "failed", "metrics"}`. */
  def resultLine(correct: Boolean, attempted: Long, failed: Long, metrics: Seq[Metric]): String = {
    val ms = metrics
      .map(m => s"${jsonString(m.name)}: {\"value\": ${jsonNumber(m.value)}, \"unit\": ${jsonString(m.unit)}}")
      .mkString(", ")
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {$ms}}"""
  }
}
