package repro.webdb

import org.apache.spark.sql.catalyst.expressions.codegen.{CodegenContext, ExprCode}
import org.apache.spark.sql.catalyst.expressions.{Expression, ImplicitCastInputTypes, Predicate, UnaryExpression}
import org.apache.spark.sql.types.{DataType, DoubleType}

/** Catalyst predicate `child ∈ iv`, with membership defined once by
  * [[Interval.contains]] for both backends.
  *
  * The generated code reads `iv` from the plan's reference array instead
  * of inlining its bounds, so its source depends only on which attribute
  * is constrained. Every later search request of the same shape reuses the
  * compiled class from Spark's codegen cache.
  */
final case class InInterval(child: Expression, iv: Interval)
    extends UnaryExpression
    with Predicate
    with ImplicitCastInputTypes {

  override def inputTypes: Seq[DataType] = Seq(DoubleType)

  override protected def nullSafeEval(v: Any): Any = iv.contains(v.asInstanceOf[Double])

  override protected def doGenCode(ctx: CodegenContext, ev: ExprCode): ExprCode = {
    val ref = ctx.addReferenceObj("iv", iv, classOf[Interval].getName)
    defineCodeGen(ctx, ev, c => s"$ref.contains($c)")
  }

  override protected def withNewChildInternal(newChild: Expression): InInterval =
    copy(child = newChild)
}
