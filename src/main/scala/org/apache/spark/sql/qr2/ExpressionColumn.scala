package org.apache.spark.sql.qr2

import org.apache.spark.sql.Column
import org.apache.spark.sql.catalyst.expressions.Expression
import org.apache.spark.sql.classic.ExpressionUtils

/** Wraps a Catalyst expression as a `Column`. (`ExpressionUtils.column` is
  * `private[sql]`; this object only forwards.)
  */
object ExpressionColumn {
  def apply(e: Expression): Column = ExpressionUtils.column(e)
}
